package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"

	"adc"
)

// noiseRate is the share of cells the spread noise model dirties, so
// every golden DC has a few violations to find.
const noiseRate = 0.01

// tableSeed generates the clean tables and sampleSeed draws mining
// samples. Both are fixed: the run seed places the noise and draws the
// requests and appended rows, so each seed is another dirty copy of
// the same tables, and runs with different seeds do the same amount of
// work.
const (
	tableSeed  = 1
	sampleSeed = 1
)

// input is one generated dataset as the program receives it: CSV
// bytes. rel is the benchmark's own parse of those bytes, the ground
// truth its oracles run on; dcs are the dataset's golden DCs.
type input struct {
	name string
	csv  []byte
	rel  *adc.Relation
	dcs  []string
}

// subSeed derives an independent stream seed from the run seed, so
// each dataset and client draws from its own deterministic stream.
func subSeed(seed int64, stream int64) int64 {
	return seed*1_000_003 + stream*7_919
}

// genInput generates the named table, dirties it with spread noise
// placed by seed, and renders it as CSV; the same seed gives the same
// bytes.
func genInput(name string, rows int, seed int64) (*input, error) {
	ds, err := adc.GenerateDataset(name, rows, tableSeed)
	if err != nil {
		return nil, err
	}
	dirty := adc.AddNoise(ds.Rel, adc.SpreadNoise, noiseRate, rand.New(rand.NewSource(seed)))
	var b bytes.Buffer
	if err := dirty.WriteCSV(&b); err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	rel, err := adc.ReadCSV(bytes.NewReader(b.Bytes()), name, true)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	in := &input{name: name, csv: b.Bytes(), rel: rel}
	for _, dc := range ds.Golden {
		in.dcs = append(in.dcs, dc.String())
	}
	return in, nil
}

// genInputs generates several datasets, each with noise from its own
// sub-seed.
func genInputs(seed int64, rows int, names ...string) ([]*input, error) {
	out := make([]*input, len(names))
	for k, name := range names {
		in, err := genInput(name, rows, subSeed(seed, int64(k+1)))
		if err != nil {
			return nil, err
		}
		out[k] = in
	}
	return out, nil
}

// batches draws n append batches of size rows each, every row a copy
// of an existing row of rel. Copies add no new values, so the
// predicate space and the cost of every check stay put as data grows.
func batches(rel *adc.Relation, n, size int, rng *rand.Rand) [][][]string {
	out := make([][][]string, n)
	for b := range out {
		out[b] = make([][]string, size)
		for r := range out[b] {
			i := rng.Intn(rel.NumRows())
			row := make([]string, rel.NumColumns())
			for j, c := range rel.Columns {
				row[j] = c.ValueString(i)
			}
			out[b][r] = row
		}
	}
	return out
}

// csvBytes is the CSV size of rows, the user bytes behind an append.
func csvBytes(rows [][]string) int {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.WriteAll(rows) //nolint:errcheck // a bytes.Buffer never fails
	return b.Len()
}
