package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/pli"
	"adc/internal/storefs"
)

var update = flag.Bool("update", false, "regenerate testdata (golden snapshot and fuzz seed corpus)")

// warmSnapshot generates a named dataset and bundles it with fully
// built indexes into a Snapshot.
func warmSnapshot(t testing.TB, name string, rows int, seed int64) (*Snapshot, *pli.Store) {
	t.Helper()
	d, err := datagen.ByName(name, rows, seed)
	if err != nil {
		t.Fatalf("datagen %s: %v", name, err)
	}
	store := pli.NewStore(d.Rel.Columns)
	store.Warm(nil, 0)
	golden := make([]string, len(d.Golden))
	for i, g := range d.Golden {
		golden[i] = g.String()
	}
	return &Snapshot{
		Relation: d.Rel,
		Indexes:  store.Snapshot(),
		Meta:     Meta{Name: name, Golden: golden, Appends: 0, Created: "2026-08-07T00:00:00Z"},
	}, store
}

// smallSnapshot hand-builds a tiny snapshot covering every column type,
// an interned string column, and post-append extended indexes. It is
// fully deterministic, byte for byte — the golden-format test depends
// on that.
func smallSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	city, err := dataset.RestoreStringColumn("city",
		[]string{"ann arbor", "boston", "chicago"},
		[]int32{0, 1, 2, 1, 0, 2, 1, 0}, true, 0)
	if err != nil {
		t.Fatalf("interned column: %v", err)
	}
	cols := []*dataset.Column{
		dataset.NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6, 7, 8}),
		dataset.NewFloatColumn("rate", []float64{0.5, 0.5, 1.25, -3, 0.5, 1.25, -3, 8}),
		dataset.NewStringColumn("state", []string{"MI", "MA", "IL", "MA", "MI", "IL", "MA", "MI"}),
		city,
	}
	rel, err := dataset.NewRelation("small", cols)
	if err != nil {
		t.Fatalf("relation: %v", err)
	}
	store := pli.NewStore(rel.Columns)
	store.Warm(nil, 1)

	// Append a row introducing new string values, so the extended
	// string indexes gain a cluster.
	grown, err := rel.AppendRows([][]string{{"9", "2.5", "OH", "dayton"}})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	next, _, _ := store.Extend(grown.Columns, rel.NumRows())
	next.Warm(nil, 1)

	return &Snapshot{
		Relation: grown,
		Indexes:  next.Snapshot(),
		Meta:     Meta{Name: "small", Golden: []string{"!(t.id = t'.id)"}, Appends: 1, Created: "2026-08-07T00:00:00Z"},
	}
}

func encodeSnapshot(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// assertSnapEqual checks the round-trip invariant: got's relation holds
// everything a snapshot stores of want's (relDiff), and its indexes and
// metadata are reflect.DeepEqual-identical to want's.
func assertSnapEqual(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if diff := relDiff(got.Relation, want.Relation); diff != "" {
		t.Errorf("%s: relation differs after round trip: %s", label, diff)
	}
	if !reflect.DeepEqual(got.Indexes, want.Indexes) {
		t.Errorf("%s: indexes differ after round trip", label)
	}
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Errorf("%s: meta differs after round trip", label)
	}
}

// relDiff describes the first difference between two relations in
// what a snapshot stores: the relation's name and shape and, per
// column, its name, type, values (floats by their bits), codes,
// dictionary values in code order, interned flag, distinct count and
// MemBytes; "" if there is none. It is not reflect.DeepEqual, which
// would also compare the backing store a relation grown by AppendRows
// shares with its other versions, and which no snapshot holds.
func relDiff(got, want *dataset.Relation) string {
	if got.Name != want.Name || got.NumRows() != want.NumRows() || got.NumColumns() != want.NumColumns() {
		return fmt.Sprintf("relation %q has %d rows and %d columns, want %q with %d and %d",
			got.Name, got.NumRows(), got.NumColumns(), want.Name, want.NumRows(), want.NumColumns())
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for j, w := range want.Columns {
		g := got.Columns[j]
		if g.Name != w.Name || g.Type != w.Type {
			return fmt.Sprintf("column %d is %q (%v), want %q (%v)", j, g.Name, g.Type, w.Name, w.Type)
		}
		if !slices.Equal(g.Ints, w.Ints) || !slices.EqualFunc(g.Floats, w.Floats, sameBits) ||
			!slices.Equal(g.Strings, w.Strings) || !slices.Equal(g.Codes, w.Codes) {
			return fmt.Sprintf("column %q: values or codes differ", w.Name)
		}
		if w.Type == dataset.String {
			gv, gi, gerr := g.DictSnapshot()
			wv, wi, werr := w.DictSnapshot()
			if gerr != nil || werr != nil || !slices.Equal(gv, wv) || gi != wi {
				return fmt.Sprintf("column %q: dictionary (%q, interned %v, %v), want (%q, %v, %v)",
					w.Name, gv, gi, gerr, wv, wi, werr)
			}
		}
		if g.DistinctCount() != w.DistinctCount() || g.MemBytes() != w.MemBytes() {
			return fmt.Sprintf("column %q: %d distinct values in %d bytes, want %d in %d",
				w.Name, g.DistinctCount(), g.MemBytes(), w.DistinctCount(), w.MemBytes())
		}
	}
	return ""
}

func TestRoundTripDatasets(t *testing.T) {
	for _, name := range []string{"adult", "tax", "hospital"} {
		t.Run(name, func(t *testing.T) {
			snap, _ := warmSnapshot(t, name, 500, 7)
			data := encodeSnapshot(t, snap)

			dec, err := Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			assertSnapEqual(t, "decode", dec, snap)

			path := filepath.Join(t.TempDir(), name+".adcs")
			if err := WriteFile(path, snap); err != nil {
				t.Fatalf("write file: %v", err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			assertSnapEqual(t, "load", loaded, snap)

			att, err := Attach(path)
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			assertSnapEqual(t, "attach", att, snap)
			if err := att.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := att.Close(); err != nil {
				t.Fatalf("double close: %v", err)
			}
		})
	}
}

func TestRoundTripSmall(t *testing.T) {
	snap := smallSnapshot(t)
	dec, err := Decode(encodeSnapshot(t, snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertSnapEqual(t, "decode", dec, snap)
}

func TestRoundTripPartialIndexes(t *testing.T) {
	snap, _ := warmSnapshot(t, "adult", 200, 3)
	snap.Indexes[1] = nil
	snap.Indexes[4] = nil
	dec, err := Decode(encodeSnapshot(t, snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertSnapEqual(t, "partial", dec, snap)

	snap.Indexes = nil
	dec, err = Decode(encodeSnapshot(t, snap))
	if err != nil {
		t.Fatalf("decode without indexes: %v", err)
	}
	if dec.Indexes != nil {
		t.Fatalf("index-free snapshot decoded with %d indexes", len(dec.Indexes))
	}
}

func TestRoundTripIngestedRelation(t *testing.T) {
	// Ingested relations intern their string columns (the production
	// path dcserved snapshots); the flag must survive the round trip.
	csv := "name,score\nalice,1\nbob,2\nalice,3\n"
	rel, err := dataset.ReadCSV(strings.NewReader(csv), "ingested", true)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	store := pli.NewStore(rel.Columns)
	store.Warm(nil, 1)
	snap := &Snapshot{Relation: rel, Indexes: store.Snapshot()}
	dec, err := Decode(encodeSnapshot(t, snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertSnapEqual(t, "ingested", dec, snap)
}

// TestAppendToAttachedRelation appends twice to a relation whose
// columns view an attached snapshot's read-only mapping, the second
// time in place into the tail the first append made, with a value new
// to every column each time. The file's bytes must not change, the
// attached relation must still equal the one written, and attaching
// again must give that relation too.
func TestAppendToAttachedRelation(t *testing.T) {
	snap, _ := warmSnapshot(t, "tax", 300, 2)
	path := filepath.Join(t.TempDir(), "tax.adcs")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Close()
	want, rel := snap.Relation, att.Relation
	for i := 0; i < 2; i++ {
		rec := make([]string, want.NumColumns())
		for j, c := range want.Columns {
			rec[j] = c.ValueString(i)
		}
		fresh := make([]string, want.NumColumns())
		for j := range fresh {
			fresh[j] = strconv.Itoa(900000 + i)
		}
		recs := [][]string{rec, fresh}
		if rel, err = rel.AppendRows(recs); err != nil {
			t.Fatal(err)
		}
		if want, err = want.AppendRows(recs); err != nil {
			t.Fatal(err)
		}
		if diff := relDiff(rel, want); diff != "" {
			t.Fatalf("append %d: %s", i, diff)
		}
	}
	if diff := relDiff(att.Relation, snap.Relation); diff != "" {
		t.Fatalf("attached relation after the appends: %s", diff)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("appending to the attached relation changed the snapshot file")
	}
	again, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if diff := relDiff(again.Relation, snap.Relation); diff != "" {
		t.Fatalf("re-attached relation: %s", diff)
	}
}

// TestAttachWithRoom attaches a snapshot with room for 0 to 6 rows and
// appends 4 rows to it in two batches, the second with a value new to
// every column, as a restore's log replay appends. Every version must
// hold what the written relation grown by the same batches holds
// (relDiff) and make the same bytes through Write; with room, the
// attached columns own arrays the batches write into in place while
// the room lasts; and neither the attached version nor the file may
// change.
func TestAttachWithRoom(t *testing.T) {
	snap, _ := warmSnapshot(t, "tax", 300, 2)
	path := filepath.Join(t.TempDir(), "tax.adcs")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []string {
		rec := make([]string, snap.Relation.NumColumns())
		for j, c := range snap.Relation.Columns {
			rec[j] = c.ValueString(i)
		}
		return rec
	}
	fresh := make([]string, snap.Relation.NumColumns())
	for j := range fresh {
		fresh[j] = "900001"
	}
	batches := [][][]string{{row(0), row(7)}, {fresh, row(3)}}
	for _, room := range []int{0, 3, 4, 6} {
		att, err := AttachWithRoom(path, room)
		if err != nil {
			t.Fatal(err)
		}
		rel, want, added := att.Relation, snap.Relation, 0
		for k, b := range batches {
			next, err := rel.AppendRows(b)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = want.AppendRows(b); err != nil {
				t.Fatal(err)
			}
			added += len(b)
			if diff := relDiff(next, want); diff != "" {
				t.Fatalf("room %d, batch %d: %s", room, k, diff)
			}
			if !bytes.Equal(encodeSnapshot(t, &Snapshot{Relation: next}), encodeSnapshot(t, &Snapshot{Relation: want})) {
				t.Fatalf("room %d, batch %d: Write makes different bytes", room, k)
			}
			for j, c := range next.Columns {
				if inPlace := slices.Equal(arrays(c), arrays(rel.Columns[j])); inPlace != (room > 0 && added <= room) {
					t.Errorf("room %d, batch %d: column %q written in place %v", room, k, c.Name, inPlace)
				}
			}
			rel = next
		}
		if diff := relDiff(att.Relation, snap.Relation); diff != "" {
			t.Fatalf("room %d: attached relation after the appends: %s", room, diff)
		}
		if err := att.Close(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("appending to relations attached with room changed the snapshot file")
	}
}

// arrays returns the addresses of the arrays c's values are in.
func arrays(c *dataset.Column) []unsafe.Pointer {
	switch c.Type {
	case dataset.Int:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Ints))}
	case dataset.Float:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Floats))}
	default:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Codes)), unsafe.Pointer(unsafe.SliceData(c.Strings))}
	}
}

// TestPayloadsSizedUpFront pins that encodeColumn and encodePLI size
// each payload exactly, so no array write grows the buffer.
func TestPayloadsSizedUpFront(t *testing.T) {
	snaps := []*Snapshot{smallSnapshot(t)}
	for _, name := range []string{"adult", "tax", "hospital"} {
		snap, _ := warmSnapshot(t, name, 200, 4)
		snaps = append(snaps, snap)
	}
	for _, snap := range snaps {
		rel := snap.Relation
		for j, c := range rel.Columns {
			payload, err := encodeColumn(j, c)
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) != cap(payload) {
				t.Errorf("%s column %q: payload of %d bytes in a buffer of %d", rel.Name, c.Name, len(payload), cap(payload))
			}
			payload, err = encodePLI(j, snap.Indexes[j], rel.NumRows())
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) != cap(payload) {
				t.Errorf("%s index %d: payload of %d bytes in a buffer of %d", rel.Name, j, len(payload), cap(payload))
			}
		}
	}
}

// TestGoldenFormatStable pins the on-disk bytes of format Version: the
// deterministic small snapshot must serialize to exactly the checked-in
// golden file. If this fails, the writer's output changed: bump Version
// unless the reader still accepts every file earlier builds wrote (as
// TestLegacyCodeMapSnapshot shows for the dropped code map), and
// regenerate with -update.
func TestGoldenFormatStable(t *testing.T) {
	data := encodeSnapshot(t, smallSnapshot(t))
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		writeFuzzCorpus(t, data)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("snapshot bytes differ from %s: format changed without a Version bump", goldenPath)
	}
}

// writeFuzzCorpus refreshes the seed corpora under testdata/fuzz from
// the golden snapshot bytes, and from the version-1 golden, which this
// package can no longer write.
func writeFuzzCorpus(t testing.TB, golden []byte) {
	t.Helper()
	decodeDir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(decodeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed_golden":       v1,
		"seed_truncated":    v1[:len(v1)/2],
		"seed_header":       v1[:fileHeaderLen],
		"seed_golden_v2":    golden,
		"seed_truncated_v2": golden[:len(golden)/2],
		"seed_header_v2":    golden[:fileHeaderLen],
		"seed_empty":        {},
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(decodeDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rtDir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRoundTrip")
	if err := os.MkdirAll(rtDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 1, 42, 2026} {
		body := fmt.Sprintf("go test fuzz v1\nint64(%d)\n", seed)
		if err := os.WriteFile(filepath.Join(rtDir, fmt.Sprintf("seed_%d", seed)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenPath holds smallSnapshot in format Version, and goldenV1Path
// as version 1 wrote it, with FNV-64a section checksums: the bytes
// TestGoldenFormatStable pinned before version 2.
var (
	goldenPath   = filepath.Join("testdata", "golden_small.adcs")
	goldenV1Path = filepath.Join("testdata", "golden_small_v1.adcs")
)

// readers are the paths that read a whole snapshot file.
var readers = map[string]func(string) (*Snapshot, error){"Load": Load, "Attach": Attach}

// TestVersion1StillReads pins that the version-1 golden and the
// version-2 golden restore to the same snapshot by Load, Attach and
// ReadMeta, and that re-writing the version-1 file gives the version-2
// golden byte for byte.
func TestVersion1StillReads(t *testing.T) {
	want := smallSnapshot(t)
	for _, tc := range []struct {
		path    string
		version uint32
	}{{goldenV1Path, 1}, {goldenPath, Version}} {
		data, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(data[4:8]); v != tc.version {
			t.Fatalf("%s: header version %d, want %d", tc.path, v, tc.version)
		}
		for name, read := range readers {
			snap, err := read(tc.path)
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.path, err)
			}
			assertSnapEqual(t, name+" "+tc.path, snap, want)
		}
		info, err := ReadMeta(tc.path)
		if err != nil {
			t.Fatalf("ReadMeta %s: %v", tc.path, err)
		}
		if info.Relation != "small" || info.Rows != 9 || info.Columns != 4 || !reflect.DeepEqual(info.Meta, want.Meta) {
			t.Errorf("ReadMeta %s = %+v", tc.path, info)
		}
		snap, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeSnapshot(t, snap), golden) {
			t.Errorf("%s re-written differs from the version-%d golden", tc.path, Version)
		}
	}
}

// TestSectionChecksums pins which checksum each version verifies. A
// flipped payload byte fails the version-1 golden through FNV-64a and
// passes once the section is re-summed with FNV-64a. In the version-2
// golden each CRC half catches it alone: re-summing only one half
// still fails, re-summing both passes.
func TestSectionChecksums(t *testing.T) {
	name := fileHeaderLen + sectionHeaderLen + 24 // relation payload: rows, columns, name length; then the name
	check := func(label string, data []byte, want error) {
		t.Helper()
		if _, err := Decode(data); !errors.Is(err, want) {
			t.Errorf("%s: Decode got %v, want %v", label, err, want)
		}
		path := filepath.Join(t.TempDir(), "s.adcs")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for rname, read := range readers {
			if _, err := read(path); !errors.Is(err, want) {
				t.Errorf("%s: %s got %v, want %v", label, rname, err, want)
			}
		}
		if _, err := ReadMeta(path); !errors.Is(err, want) {
			t.Errorf("%s: ReadMeta got %v, want %v", label, err, want)
		}
	}
	flip := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data[name:name+5]) != "small" {
			t.Fatalf("test setup: %s holds %q where the relation name should be", path, data[name:name+5])
		}
		data[name] ^= 0x01 // "small" becomes "rmall"
		return data
	}

	v1 := flip(goldenV1Path)
	check("v1 flipped", v1, ErrCorrupt)
	resum(v1, fileHeaderLen)
	check("v1 re-summed by FNV-64a", v1, nil)

	v2 := flip(goldenPath)
	check("v2 flipped", v2, ErrCorrupt)
	stored := binary.LittleEndian.Uint64(v2[fileHeaderLen+16:])
	resum(v2, fileHeaderLen)
	fresh := binary.LittleEndian.Uint64(v2[fileHeaderLen+16:])
	for _, tc := range []struct {
		label string
		sum   uint64
		want  error
	}{
		{"v2 CRC-32C re-summed, CRC-32 stale", fresh&^0xFFFFFFFF | stored&0xFFFFFFFF, ErrCorrupt},
		{"v2 CRC-32 re-summed, CRC-32C stale", stored&^0xFFFFFFFF | fresh&0xFFFFFFFF, ErrCorrupt},
		{"v2 both halves re-summed", fresh, nil},
	} {
		binary.LittleEndian.PutUint64(v2[fileHeaderLen+16:], tc.sum)
		check(tc.label, v2, tc.want)
	}
}

// TestCorruption drives the typed error paths over mutations of a
// valid snapshot.
func TestCorruption(t *testing.T) {
	base := encodeSnapshot(t, smallSnapshot(t))
	firstPayload := fileHeaderLen + sectionHeaderLen // start of relation payload

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
		// skipMeta marks corruption beyond the relation and meta
		// sections, which ReadMeta never reads — by design, so the
		// startup scan stays O(header).
		skipMeta bool
	}{
		{name: "empty file", mutate: func(b []byte) []byte { return nil }, want: ErrCorrupt},
		{name: "truncated header", mutate: func(b []byte) []byte { return b[:4] }, want: ErrCorrupt},
		{name: "truncated mid payload", mutate: func(b []byte) []byte { return b[:len(b)-11] }, want: ErrCorrupt, skipMeta: true},
		{name: "truncated mid section header", mutate: func(b []byte) []byte { return b[:fileHeaderLen+7] }, want: ErrCorrupt},
		{name: "bad magic", mutate: func(b []byte) []byte { b[0] ^= 0xFF; return b }, want: ErrCorrupt},
		{name: "version skew", mutate: func(b []byte) []byte { b[4] = 99; return b }, want: ErrVersion},
		{name: "version 3", mutate: func(b []byte) []byte { b[4] = 3; return b }, want: ErrVersion},
		{name: "version 0", mutate: func(b []byte) []byte { b[4] = 0; return b }, want: ErrVersion},
		{name: "flipped payload bit", mutate: func(b []byte) []byte { b[firstPayload+2] ^= 0x10; return b }, want: ErrCorrupt},
		{name: "flipped checksum bit", mutate: func(b []byte) []byte { b[fileHeaderLen+16] ^= 0x01; return b }, want: ErrCorrupt},
		{name: "nonzero reserved", mutate: func(b []byte) []byte { b[fileHeaderLen+4] = 1; return b }, want: ErrCorrupt},
		{name: "unknown section kind", mutate: func(b []byte) []byte { b[fileHeaderLen] = 99; return b }, want: ErrCorrupt},
		{name: "oversized section length", mutate: func(b []byte) []byte { b[fileHeaderLen+8] = 0xFF; b[fileHeaderLen+9] = 0xFF; return b }, want: ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), base...))
			if _, err := Decode(data); !errors.Is(err, tc.want) {
				t.Errorf("Decode: got %v, want %v", err, tc.want)
			}
			// The same corruption must surface identically through every
			// read path.
			path := filepath.Join(t.TempDir(), "corrupt.adcs")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); !errors.Is(err, tc.want) {
				t.Errorf("Load: got %v, want %v", err, tc.want)
			}
			if _, err := Attach(path); !errors.Is(err, tc.want) {
				t.Errorf("Attach: got %v, want %v", err, tc.want)
			}
			if !tc.skipMeta {
				if _, err := ReadMeta(path); !errors.Is(err, tc.want) {
					t.Errorf("ReadMeta: got %v, want %v", err, tc.want)
				}
			}
		})
	}
}

func TestReadMeta(t *testing.T) {
	snap := smallSnapshot(t)
	path := filepath.Join(t.TempDir(), "small.adcs")
	if err := WriteFile(path, snap); err != nil {
		t.Fatalf("write file: %v", err)
	}
	info, err := ReadMeta(path)
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	if info.Relation != "small" || info.Rows != 9 || info.Columns != 4 {
		t.Errorf("header peek = (%q, %d, %d), want (small, 9, 4)", info.Relation, info.Rows, info.Columns)
	}
	if !reflect.DeepEqual(info.Meta, snap.Meta) {
		t.Errorf("meta = %+v, want %+v", info.Meta, snap.Meta)
	}
	st, _ := os.Stat(path)
	if info.SizeBytes != st.Size() {
		t.Errorf("size = %d, want %d", info.SizeBytes, st.Size())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	// A failed write must leave neither the target nor temp litter.
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.adcs")
	bad := &Snapshot{} // nil relation: Write fails after the temp file exists
	if err := WriteFile(path, bad); err == nil {
		t.Fatalf("writing a nil relation should fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed WriteFile left %d files behind", len(entries))
	}
}

func TestWriteFileSyncsParentDir(t *testing.T) {
	// The rename only becomes crash-durable once the parent directory
	// is fsynced; pin both that the syncdir happens and that it happens
	// after the rename.
	dir := t.TempDir()
	path := filepath.Join(dir, "small.adcs")
	ff := storefs.NewFaulty(nil)
	if err := WriteFileFS(ff, path, smallSnapshot(t)); err != nil {
		t.Fatalf("WriteFileFS: %v", err)
	}
	renameAt, syncdirAt := -1, -1
	for i, op := range ff.Log() {
		if strings.HasPrefix(op, "rename ") {
			renameAt = i
		}
		if strings.HasPrefix(op, "syncdir "+dir) {
			syncdirAt = i
		}
	}
	if renameAt < 0 {
		t.Fatalf("no rename in op log %q", ff.Log())
	}
	if syncdirAt < 0 {
		t.Fatalf("parent directory never fsynced; op log %q", ff.Log())
	}
	if syncdirAt < renameAt {
		t.Fatalf("dir fsync at op %d precedes rename at op %d", syncdirAt, renameAt)
	}
}

func TestWriteFileFSErrorPaths(t *testing.T) {
	// Whatever operation fails, the error must surface and the final
	// path must not exist (a torn snapshot under the real name is the
	// one unacceptable outcome).
	snap := smallSnapshot(t)
	boom := errors.New("boom")
	// A full successful write's op count bounds the injection points.
	probe := storefs.NewFaulty(nil)
	if err := WriteFileFS(probe, filepath.Join(t.TempDir(), "probe.adcs"), snap); err != nil {
		t.Fatalf("probe write: %v", err)
	}
	total := probe.Ops()
	for n := int64(1); n <= total; n++ {
		for _, kind := range []storefs.FaultKind{storefs.FaultErr, storefs.FaultShortWrite} {
			dir := t.TempDir()
			path := filepath.Join(dir, "small.adcs")
			ff := storefs.NewFaulty(nil)
			ff.InjectAt(n, kind, boom)
			err := WriteFileFS(ff, path, snap)
			if ff.Ops() < n {
				continue // fault never reached (fewer ops on this path)
			}
			if err == nil {
				// Only best-effort ops (the deferred temp Remove) may
				// swallow a fault — and then the snapshot must be whole.
				if _, rErr := ReadMeta(path); rErr != nil {
					t.Fatalf("op %d kind %d: fault swallowed and snapshot unreadable: %v", n, kind, rErr)
				}
				continue
			}
			// The rename is the commit point: before it the final path
			// must not exist; at or after it the file must be complete.
			if _, statErr := os.Stat(path); statErr == nil {
				if _, rErr := ReadMeta(path); rErr != nil {
					t.Fatalf("op %d kind %d: torn snapshot under final name: %v", n, kind, rErr)
				}
			}
		}
	}
}

func TestOpenAttachmentsCounter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.adcs")
	if err := WriteFile(path, smallSnapshot(t)); err != nil {
		t.Fatalf("write: %v", err)
	}
	base := OpenAttachments()
	snap, err := Attach(path)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if snap.close == nil {
		t.Skip("no mmap on this platform")
	}
	if got := OpenAttachments(); got != base+1 {
		t.Fatalf("after Attach: OpenAttachments = %d, want %d", got, base+1)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := OpenAttachments(); got != base {
		t.Fatalf("after Close: OpenAttachments = %d, want %d", got, base)
	}
	// Double Close must not double-decrement.
	if err := snap.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if got := OpenAttachments(); got != base {
		t.Fatalf("after double Close: OpenAttachments = %d, want %d", got, base)
	}
}

// legacyCSV and legacyAppend rebuild the relation of
// testdata/legacy_codemap.adcs, a snapshot written by an earlier build
// that still kept a code→cluster map: it ingested legacyCSV, built
// every index, appended legacyAppend (whose city is a new value, so
// the extended city index carried an identity code map), rebuilt the
// dropped numeric indexes and wrote the snapshot.
const legacyCSV = "city,zip,state,rate\n" +
	"Oslo,10,NO,0.5\nRome,20,IT,1.25\nOslo,10,NO,0.5\nLima,30,PE,-3\n" +
	"Rome,21,IT,1.25\nLima,30,PE,8\n"

var legacyAppend = [][]string{{"Kyiv", "40", "IT", "2.5"}}

// legacySection returns the offset and payload of the first section of
// the given kind whose payload starts with column position j.
func legacySection(t *testing.T, data []byte, kind uint32, j uint32) (int, []byte) {
	t.Helper()
	for off := fileHeaderLen; off < len(data); {
		k := binary.LittleEndian.Uint32(data[off:])
		plen := int(binary.LittleEndian.Uint64(data[off+8:]))
		payload := data[off+sectionHeaderLen : off+sectionHeaderLen+plen]
		if k == kind && binary.LittleEndian.Uint32(payload) == j {
			return off, payload
		}
		off += sectionHeaderLen + (plen+7)&^7
	}
	t.Fatalf("no section of kind %d for column %d", kind, j)
	return 0, nil
}

// resum recomputes the checksum of the section at off with the
// checksum of the file's version, so an altered payload is rejected by
// the decoder's own checks, not the checksum.
func resum(data []byte, off int) {
	plen := int(binary.LittleEndian.Uint64(data[off+8:]))
	version := binary.LittleEndian.Uint32(data[4:8])
	sum := sectionSum(version, data[off+sectionHeaderLen:off+sectionHeaderLen+plen])
	binary.LittleEndian.PutUint64(data[off+16:], sum)
}

// TestLegacyCodeMapSnapshot pins compatibility with snapshots whose
// string indexes carry a code map: an identity map restores to the
// relation and indexes this build computes, by Load and by Attach,
// while a map that is not the identity, or codes out of first-occurrence
// order, fail as corrupt (ErrCorrupt, re-exported as
// adc.SnapshotErrCorrupt).
func TestLegacyCodeMapSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "legacy_codemap.adcs")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.ReadCSV(strings.NewReader(legacyCSV), "legacy", true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rel.AppendRows(legacyAppend)
	if err != nil {
		t.Fatal(err)
	}
	if _, payload := legacySection(t, data, secPLI, 0); binary.LittleEndian.Uint32(payload[24:]) != 1 {
		t.Fatalf("test setup: the city index of %s carries no code map", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != 1 {
		t.Fatalf("test setup: %s is version %d, want 1", path, v)
	}
	for name, load := range readers {
		snap, err := load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := relDiff(snap.Relation, want); diff != "" {
			t.Errorf("%s: relation differs from a rebuild: %s", name, diff)
		}
		for j, c := range want.Columns {
			if !reflect.DeepEqual(snap.Indexes[j], pli.ForColumn(c)) {
				t.Errorf("%s: index %d differs from a rebuild", name, j)
			}
		}
	}

	// One code-map entry sent elsewhere: the last entry, code 3 → 2.
	badMap := bytes.Clone(data)
	off, payload := legacySection(t, badMap, secPLI, 0)
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 2)
	resum(badMap, off)

	// Rows 0 and 1 swap codes: in range, but row 0 does not hold code 0.
	badOrder := bytes.Clone(data)
	off, payload = legacySection(t, badOrder, secColumn, 0)
	codes := 16 + 8 + (len("city")+7)&^7 + 8 // j, type, rows; name; interned, dictLen
	c0, c1 := payload[codes:codes+4], payload[codes+4:codes+8]
	if binary.LittleEndian.Uint32(c0) != 0 || binary.LittleEndian.Uint32(c1) != 1 {
		t.Fatalf("test setup: city codes start %v %v, want 0 1", c0, c1)
	}
	binary.LittleEndian.PutUint32(c0, 1)
	binary.LittleEndian.PutUint32(c1, 0)
	resum(badOrder, off)

	for _, tc := range []struct {
		name, msg string
		data      []byte
	}{
		{"map entry changed", "code map", badMap},
		{"codes out of first-occurrence order", "first-occurrence", badOrder},
	} {
		p := filepath.Join(t.TempDir(), "bad.adcs")
		if err := os.WriteFile(p, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, load := range readers {
			_, err := load(p)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt about %q", tc.name, name, err, tc.msg)
			}
		}
	}
}

// adultSnapshot is the bytes of a 20,000-row adult snapshot with every
// index built, the input of the section checksum benchmarks.
var adultSnapshot = sync.OnceValue(func() []byte {
	d, err := datagen.ByName("adult", 20000, 1)
	if err != nil {
		panic(err)
	}
	store := pli.NewStore(d.Rel.Columns)
	store.Warm(nil, 0)
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Relation: d.Rel, Indexes: store.Snapshot()}); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkSectionSumCRC checksums the adult snapshot's bytes as
// version 2 does; CI gates it at five times faster than
// BenchmarkSectionSumFNV, version 1's FNV-64a over the same bytes.
func BenchmarkSectionSumCRC(b *testing.B) { benchSectionSum(b, Version) }

func BenchmarkSectionSumFNV(b *testing.B) { benchSectionSum(b, 1) }

// sumSink keeps the benchmarked checksums live.
var sumSink uint64

func benchSectionSum(b *testing.B, version uint32) {
	data := adultSnapshot()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sumSink = sectionSum(version, data)
	}
}
