package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adc/internal/dataset"
	"adc/internal/pli"
)

// randomSnapshot derives a snapshot from a seed: a relation with
// random shape and values (floats drawn from a finite set — NaN would
// break the DeepEqual oracle, and the format stores bit patterns, not
// semantics) plus indexes warmed on a random subset of columns.
func randomSnapshot(t testing.TB, seed int64) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := 2 + rng.Intn(40)
	numCols := 1 + rng.Intn(4)
	cols := make([]*dataset.Column, numCols)
	for j := range cols {
		name := fmt.Sprintf("c%d", j)
		switch rng.Intn(3) {
		case 0:
			v := make([]int64, rows)
			for i := range v {
				v[i] = int64(rng.Intn(6) - 3)
			}
			cols[j] = dataset.NewIntColumn(name, v)
		case 1:
			keys := []float64{-2.5, 0, 0.125, 7, 1e9}
			v := make([]float64, rows)
			for i := range v {
				v[i] = keys[rng.Intn(len(keys))]
			}
			cols[j] = dataset.NewFloatColumn(name, v)
		default:
			words := []string{"", "a", "bb", "ccc", "ann arbor", "ütf8✓"}
			v := make([]string, rows)
			for i := range v {
				v[i] = words[rng.Intn(len(words))]
			}
			cols[j] = dataset.NewStringColumn(name, v)
		}
	}
	rel, err := dataset.NewRelation("fuzz", cols)
	if err != nil {
		t.Fatalf("relation: %v", err)
	}
	store := pli.NewStore(rel.Columns)
	var warm []int
	for j := 0; j < numCols; j++ {
		if rng.Intn(2) == 0 {
			warm = append(warm, j)
		}
	}
	if len(warm) > 0 {
		store.Warm(warm, 1)
	}
	snap := &Snapshot{Relation: rel, Meta: Meta{Name: "fuzz", Appends: int64(seed)}}
	if len(warm) > 0 {
		snap.Indexes = store.Snapshot()
	}
	return snap
}

// FuzzSnapshotRoundTrip drives write → decode over randomly shaped
// relations and demands DeepEqual identity.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 2026} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		snap := randomSnapshot(t, seed)
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatalf("write: %v", err)
		}
		dec, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("decode of a freshly written snapshot: %v", err)
		}
		if !reflect.DeepEqual(dec.Relation, snap.Relation) {
			t.Fatalf("relation differs after round trip (seed %d)", seed)
		}
		if !reflect.DeepEqual(dec.Indexes, snap.Indexes) {
			t.Fatalf("indexes differ after round trip (seed %d)", seed)
		}
		if !reflect.DeepEqual(dec.Meta, snap.Meta) {
			t.Fatalf("meta differs after round trip (seed %d)", seed)
		}
	})
}

// FuzzSnapshotDecode throws raw bytes at the decoder: it must never
// panic or over-allocate, and whatever it accepts must re-encode and
// decode to the same snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("testdata", "golden_small.adcs")); err == nil {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:fileHeaderLen])
	}
	f.Add([]byte{})
	f.Add([]byte(Magic))
	if data, err := os.ReadFile(filepath.Join("testdata", "legacy_codemap.adcs")); err == nil {
		f.Add(data) // an identity code map, as earlier builds wrote
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		again, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if !reflect.DeepEqual(again.Relation, snap.Relation) {
			t.Fatalf("relation not stable across re-encode")
		}
	})
}
