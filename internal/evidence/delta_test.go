package evidence_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// rowRecords renders rows [lo, hi) of rel as append records (one string
// per column, in column order), the same shape the server's append
// endpoint feeds Relation.AppendRows.
func rowRecords(rel *dataset.Relation, lo, hi int) [][]string {
	out := make([][]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rec := make([]string, len(rel.Columns))
		for j, c := range rel.Columns {
			rec[j] = c.ValueString(i)
		}
		out = append(out, rec)
	}
	return out
}

// prefix returns a relation holding the first m rows of rel.
func prefix(rel *dataset.Relation, m int) *dataset.Relation {
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	return rel.Project(rows)
}

// TestDeltaMatchesScratchMultiBatch replays randomized multi-batch
// append schedules on the three golden datasets and requires the
// delta-maintained evidence — chained, each step extending the previous
// step's output at a random worker count and tile size — to match a
// from-scratch build exactly (sets, counts, vios) at every point of
// every schedule.
func TestDeltaMatchesScratchMultiBatch(t *testing.T) {
	popts := predicate.DefaultOptions()
	for _, name := range []string{"adult", "tax", "hospital"} {
		t.Run(name, func(t *testing.T) {
			full, err := datagen.ByName(name, 140, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			cur := prefix(full.Rel, 100)
			prev, err := evidence.ClusterBuilder{}.Build(predicate.Build(cur, popts), true)
			if err != nil {
				t.Fatal(err)
			}
			deltas := 0
			for cur.NumRows() < full.Rel.NumRows() {
				batch := 1 + rng.Intn(12)
				if rest := full.Rel.NumRows() - cur.NumRows(); batch > rest {
					batch = rest
				}
				next, err := cur.AppendRows(rowRecords(full.Rel, cur.NumRows(), cur.NumRows()+batch))
				if err != nil {
					t.Fatal(err)
				}
				space := predicate.Build(next, popts)
				scratch, err := evidence.ClusterBuilder{}.Build(space, true)
				if err != nil {
					t.Fatal(err)
				}
				b := evidence.ClusterBuilder{Workers: 1 + rng.Intn(4), TileSize: 1 + rng.Intn(9)}
				got, st, err := b.Delta(prev, space)
				switch {
				case errors.Is(err, evidence.ErrSpaceChanged):
					// The 30% rule flipped a cross-column pair: the
					// production path rebuilds from scratch here.
					got = scratch
				case err != nil:
					t.Fatal(err)
				default:
					deltas++
					k := int64(batch)
					if want := 2*k*int64(cur.NumRows()) + k*k - k; st.Pairs != want {
						t.Fatalf("delta pairs = %d, want %d (batch %d onto %d rows, %+v)", st.Pairs, want, batch, cur.NumRows(), b)
					}
					requireSameEvidence(t, scratch, got, true)
				}
				cur, prev = next, got
			}
			if deltas == 0 {
				t.Fatal("no batch took the delta path; schedule is vacuous")
			}
		})
	}
}

// TestDeltaNewSignaturesAndDictCodes appends rows carrying values never
// seen in the base relation — new string dictionary codes and a
// super-row signature with no existing cluster to join — and rows
// duplicating existing ones, covering both sides of the part split.
func TestDeltaNewSignaturesAndDictCodes(t *testing.T) {
	base := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewStringColumn("s", []string{"x", "y", "x", "y", "x"}),
		dataset.NewIntColumn("v", []int64{1, 2, 1, 2, 3}),
	})
	popts := predicate.DefaultOptions()
	prev, err := evidence.NaiveBuilder{}.Build(predicate.Build(base, popts), true)
	if err != nil {
		t.Fatal(err)
	}
	next, err := base.AppendRows([][]string{
		{"z", "9"}, // new code, new signature
		{"x", "1"}, // joins an existing cluster
		{"z", "9"}, // duplicates the new signature
	})
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(next, popts)
	got, st, err := evidence.ClusterBuilder{}.Delta(prev, space)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parts != 2 {
		t.Fatalf("new-row parts = %d, want 2", st.Parts)
	}
	scratch, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, scratch, got, true)
}

// TestDeltaNaNNumerics pins the delta path on float columns containing
// NaN in both the base and the appended rows against the NaiveBuilder
// oracle: a pair with a NaN operand satisfies only ≠ in that group,
// whatever rank the PLI gives the NaN.
func TestDeltaNaNNumerics(t *testing.T) {
	nan := math.NaN()
	base := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewFloatColumn("f", []float64{1, nan, 2, 1, nan, 3}),
		dataset.NewIntColumn("k", []int64{0, 1, 0, 1, 0, 1}),
	})
	popts := predicate.DefaultOptions()
	prev, err := evidence.ClusterBuilder{}.Build(predicate.Build(base, popts), true)
	if err != nil {
		t.Fatal(err)
	}
	next, err := base.AppendRows([][]string{
		{"NaN", "0"},
		{"2", "1"},
		{"NaN", "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(next, popts)
	got, _, err := evidence.ClusterBuilder{}.Delta(prev, space)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, scratch, got, true)
}

// TestDeltaWithoutVios checks the cheaper maintenance mode: a base set
// built without vios extends without materializing them.
func TestDeltaWithoutVios(t *testing.T) {
	full, err := datagen.ByName("tax", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	popts := predicate.DefaultOptions()
	cur := prefix(full.Rel, 50)
	prev, err := evidence.ClusterBuilder{}.Build(predicate.Build(cur, popts), false)
	if err != nil {
		t.Fatal(err)
	}
	next, err := cur.AppendRows(rowRecords(full.Rel, 50, 60))
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(next, popts)
	got, _, err := evidence.ClusterBuilder{}.Delta(prev, space)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasVios() {
		t.Fatal("delta materialized vios from a vios-free base")
	}
	scratch, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, scratch, got, false)
}

// TestDeltaSpaceChangedFallback: appends push a cross-column pair over
// the 30% shared-values threshold, the post-append space grows, and
// Delta must refuse with ErrSpaceChanged rather than mis-marry
// bitsets of different widths/meanings.
func TestDeltaSpaceChangedFallback(t *testing.T) {
	base := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewStringColumn("a", []string{"p", "q", "p", "q"}),
		dataset.NewStringColumn("b", []string{"r", "s", "r", "s"}),
	})
	popts := predicate.DefaultOptions()
	baseSpace := predicate.Build(base, popts)
	prev, err := evidence.ClusterBuilder{}.Build(baseSpace, true)
	if err != nil {
		t.Fatal(err)
	}
	next, err := base.AppendRows([][]string{{"r", "p"}, {"r", "p"}, {"r", "p"}})
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(next, popts)
	if baseSpace.SameStructure(space) {
		t.Fatal("append did not change the space; fallback case is vacuous")
	}
	if _, _, err := (evidence.ClusterBuilder{}).Delta(prev, space); !errors.Is(err, evidence.ErrSpaceChanged) {
		t.Fatalf("err = %v, want ErrSpaceChanged", err)
	}
}

// TestDeltaDegenerateBases: zero-row appends return the base unchanged;
// sampled, partial and shrunk bases are rejected. The real sample's
// evidence has the pair total of a full relation of its size, and
// without cross-column predicates its space has the grown relation's
// structure, so only the rows themselves tell it apart.
func TestDeltaDegenerateBases(t *testing.T) {
	full, err := datagen.ByName("adult", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	popts := predicate.DefaultOptions()
	space := predicate.Build(full.Rel, popts)
	prev, err := evidence.ClusterBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	var b evidence.ClusterBuilder
	same, st, err := b.Delta(prev, space)
	if err != nil || same != prev || st.AppendedRows != 0 {
		t.Fatalf("zero-append: got (%p, %+v, %v), want the base set back", same, st, err)
	}

	partial := *prev
	partial.TotalPairs -= 2
	if _, _, err := b.Delta(&partial, space); err == nil {
		t.Fatal("partial base accepted")
	}

	stock, err := datagen.ByName("stock", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	sopts := predicate.Options{MinShared: 0.3, SingleTuple: true}
	sample := stock.Rel.Sample(0.25, rand.New(rand.NewSource(3)))
	sampleSpace := predicate.Build(sample, sopts)
	stockSpace := predicate.Build(stock.Rel, sopts)
	if !sampleSpace.SameStructure(stockSpace) {
		t.Fatal("sample's space differs in structure; the sampled case is vacuous")
	}
	sampled, err := evidence.ClusterBuilder{}.Build(sampleSpace, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Delta(sampled, stockSpace); err == nil {
		t.Fatal("sampled base accepted")
	}

	shrunk := prefix(full.Rel, 10)
	if _, _, err := b.Delta(prev, predicate.Build(shrunk, popts)); err == nil {
		t.Fatal("shrunk relation accepted")
	}

	if _, _, err := b.Delta(evidence.FromSets(nil, nil, 5, 20), space); err == nil {
		t.Fatal("space-less base accepted")
	}
}
