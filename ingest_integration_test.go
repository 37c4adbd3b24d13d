package adc_test

// End-to-end differential for the ingest & indexing front-end on the
// paper's datasets: parallel ingest at every worker count / chunk size
// must produce Relations and PLIs exactly equal to the serial path
// (ISSUE 5 acceptance). Relation equality is reflect.DeepEqual — the
// streaming paths share one interned representation — and index
// equality is reflect.DeepEqual over every column's pli.Index, whose
// construction is canonical (ascending rows within clusters).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/pli"
)

func TestParallelIngestMatchesSerial(t *testing.T) {
	variants := []dataset.IngestOptions{
		{Workers: 2, ChunkBytes: 16},
		{Workers: 2, ChunkBytes: 100},
		{Workers: 8, ChunkBytes: 7},
		{Workers: 8, ChunkBytes: 4096},
	}
	for _, name := range []string{"adult", "tax", "hospital"} {
		t.Run(name, func(t *testing.T) {
			d, err := datagen.ByName(name, 300, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.Rel.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()

			serial, err := dataset.ReadCSVOptions(bytes.NewReader(raw), name, true,
				dataset.IngestOptions{Workers: 1, ChunkBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			serialIdx := pli.BuildIndexes(serial.Columns, nil, 1)

			for _, opt := range variants {
				label := fmt.Sprintf("workers=%d,chunk=%d", opt.Workers, opt.ChunkBytes)
				par, err := dataset.ReadCSVOptions(bytes.NewReader(raw), name, true, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(par, serial) {
					t.Fatalf("%s: relation differs from serial ingest", label)
				}
				parIdx := pli.BuildIndexes(par.Columns, nil, 8)
				for c := range serialIdx {
					if !reflect.DeepEqual(parIdx[c], serialIdx[c]) {
						t.Fatalf("%s: PLI for column %q differs from serial build",
							label, serial.Columns[c].Name)
					}
				}
			}
		})
	}
}
