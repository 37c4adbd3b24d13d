package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadCSV parses a relation from CSV data. If header is true the first
// record supplies column names; otherwise columns are named c0, c1, ....
// Column types are inferred: a column where every value parses as an
// integer becomes Int; failing that, Float; otherwise String. Empty cells
// force a column to String (the miner has no null semantics; an empty
// string is an ordinary value).
//
// ReadCSV streams: it runs the chunk-parallel reader of ReadCSVOptions
// with default options (GOMAXPROCS workers) and never materializes the
// file as [][]string. The parsed relation is bit-identical to the
// historical buffered implementation (up to ReadCSVOptions' 2 GiB
// per-row arena limit, the one input class the buffered reader could
// in principle accept and this one rejects).
func ReadCSV(rd io.Reader, name string, header bool) (*Relation, error) {
	return ReadCSVOptions(rd, name, header, IngestOptions{})
}

// readCSVBuffered is the original csv.ReadAll-based implementation,
// retained as the correctness oracle for the streaming reader: the
// differential and fuzz tests require ReadCSVOptions to reproduce its
// output (and its errors) exactly. It is not called in production.
func readCSVBuffered(rd io.Reader, name string, header bool) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV for %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: CSV for %q is empty", name)
	}
	var names []string
	if header {
		names = records[0]
		records = records[1:]
	} else {
		names = make([]string, len(records[0]))
		for i := range names {
			names[i] = "c" + strconv.Itoa(i)
		}
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: CSV for %q has a header but no rows", name)
	}
	width := len(names)
	for i, rec := range records {
		if len(rec) != width {
			return nil, fmt.Errorf("dataset: CSV for %q: row %d has %d fields, want %d",
				name, i+1, len(rec), width)
		}
	}
	cols := make([]*Column, width)
	for j := 0; j < width; j++ {
		raw := make([]string, len(records))
		for i, rec := range records {
			raw[i] = strings.TrimSpace(rec[j])
		}
		cols[j] = inferColumn(names[j], raw)
	}
	return NewRelation(name, cols)
}

// ReadCSVFile reads a relation from a CSV file on disk; the relation is
// named after the file.
func ReadCSVFile(path string, header bool) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".csv")
	return ReadCSV(f, base, header)
}

func inferColumn(name string, raw []string) *Column {
	isInt, isFloat := true, true
	for _, s := range raw {
		if s == "" {
			return NewStringColumn(name, raw)
		}
		if isInt {
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				isInt = false
			}
		}
		if !isInt && isFloat {
			if _, err := strconv.ParseFloat(s, 64); err != nil {
				isFloat = false
				break
			}
		}
	}
	switch {
	case isInt:
		v := make([]int64, len(raw))
		for i, s := range raw {
			v[i], _ = strconv.ParseInt(s, 10, 64)
		}
		return NewIntColumn(name, v)
	case isFloat:
		v := make([]float64, len(raw))
		for i, s := range raw {
			v[i], _ = strconv.ParseFloat(s, 64)
		}
		return NewFloatColumn(name, v)
	default:
		return NewStringColumn(name, raw)
	}
}

// WriteCSV writes the relation as CSV with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	if err := cw.Write(names); err != nil {
		return err
	}
	row := make([]string, len(r.Columns))
	for i := 0; i < r.n; i++ {
		for j, c := range r.Columns {
			row[j] = c.ValueString(i)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
