package dataset_test

import (
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
)

// appendBatches is how many distinct 4-row batches the append
// benchmarks cycle through; BenchmarkAppendRowsTip restarts its
// relation after each cycle, so the relation stays near 20k rows.
const appendBatches = 1024

// appendFixture returns adult at 20,000 rows, appended to once so its
// columns have a tail it is the newest version of, and appendBatches
// 4-row batches copied from its rows. Like the benchmark workloads'
// appends, the batches add no string value: a batch that does copies
// that column's dictionary, whatever version it is appended to.
func appendFixture(b *testing.B) (*dataset.Relation, [][][]string) {
	b.Helper()
	d, err := datagen.ByName("adult", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][][]string, appendBatches+1)
	for i := range batches {
		batch := make([][]string, 4)
		for k := range batch {
			rec := make([]string, d.Rel.NumColumns())
			for j, c := range d.Rel.Columns {
				rec[j] = c.ValueString((4*i + k) % d.Rel.NumRows())
			}
			batch[k] = rec
		}
		batches[i] = batch
	}
	rel, err := d.Rel.AppendRows(batches[appendBatches])
	if err != nil {
		b.Fatal(err)
	}
	return rel, batches[:appendBatches]
}

// relSink keeps the benchmarked appends live.
var relSink *dataset.Relation

// BenchmarkAppendRowsTip appends 4-row batches to the newest version
// of adult-20k, the server's append: each writes its rows in place. CI
// gates it against BenchmarkAppendRowsFork.
func BenchmarkAppendRowsTip(b *testing.B) {
	base, batches := appendFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cur *dataset.Relation
	for i := 0; i < b.N; i++ {
		if i%appendBatches == 0 {
			b.StopTimer()
			// A fresh newest version: base's columns copied into tails
			// of their own, which the second append grows.
			var err error
			if cur, err = base.AppendRows(batches[0][:1]); err != nil {
				b.Fatal(err)
			}
			if cur, err = cur.AppendRows(batches[0][1:2]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		var err error
		if cur, err = cur.AppendRows(batches[i%appendBatches]); err != nil {
			b.Fatal(err)
		}
	}
	relSink = cur
}

// BenchmarkAppendRowsFork appends the same batches to one older version
// of adult-20k each time, so every append copies each column once: what
// every append cost before appends wrote in place.
func BenchmarkAppendRowsFork(b *testing.B) {
	old, batches := appendFixture(b)
	if _, err := old.AppendRows(batches[0]); err != nil { // old is no longer the newest
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if relSink, err = old.AppendRows(batches[i%appendBatches]); err != nil {
			b.Fatal(err)
		}
	}
}
