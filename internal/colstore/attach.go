package colstore

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
)

// openAttachments counts live file mappings: incremented when Attach
// establishes one, decremented when Snapshot.Close releases it. Tests
// pin munmap-on-evict behavior against this.
var openAttachments atomic.Int64

// OpenAttachments returns the number of mmap attachments established
// by Attach and not yet released by Snapshot.Close. On platforms where
// Attach degrades to a heap load it stays zero.
func OpenAttachments() int64 { return openAttachments.Load() }

// Attach opens the snapshot at path with its large arrays aliased onto
// a read-only file mapping: numeric columns, dictionary codes, string
// arenas, and ClusterOf arrays all view the mapped bytes directly, so
// attaching costs metadata decoding plus page faults on first touch
// rather than a full heap materialization. The returned snapshot's
// Close releases the mapping; see Snapshot.Close for the lifetime
// contract. On platforms without mmap support this degrades to Load.
func Attach(path string) (*Snapshot, error) { return AttachWithRoom(path, 0) }

// AttachWithRoom is Attach for a relation that room rows are about to
// be appended to, such as a restore's log replay: with room > 0 the
// columns own copies of their values and codes, made once from the
// mapping with capacity for room more rows, so appends that add up to
// room rows to the newest version write in place instead of copying
// every column. Dictionary strings and indexes still view the mapping.
// With room 0 it is Attach.
func AttachWithRoom(path string, room int) (*Snapshot, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := decode(data, room)
	if err != nil {
		if closer != nil {
			closer() //nolint:errcheck // the decode error wins
		}
		return nil, err
	}
	if closer != nil {
		openAttachments.Add(1)
		inner := closer
		closer = func() error {
			openAttachments.Add(-1)
			return inner()
		}
	}
	snap.close = closer
	return snap, nil
}

// FileInfo is the cheap header peek ReadMeta returns: enough for
// dcserved to list and re-register a spilled session without decoding
// any column data.
type FileInfo struct {
	// Relation is the stored relation's name.
	Relation string
	// Rows and Columns are the relation's dimensions.
	Rows    int
	Columns int
	// Meta is the stored session metadata.
	Meta Meta
	// SizeBytes is the snapshot file's size on disk.
	SizeBytes int64
}

// ReadMeta reads only the relation header and metadata sections of the
// snapshot at path — a few hundred bytes regardless of snapshot size —
// validating their checksums. It is the startup-scan primitive: cheap
// enough to run over every file in a data directory.
func ReadMeta(path string) (*FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}

	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, corruptf("file shorter than the %d-byte header", fileHeaderLen)
	}
	version, err := fileVersion(hdr[:])
	if err != nil {
		return nil, err
	}

	info := &FileInfo{SizeBytes: st.Size()}
	var haveRel, haveMeta bool
	off := int64(fileHeaderLen)
	for off < st.Size() && !(haveRel && haveMeta) {
		var shdr [sectionHeaderLen]byte
		if _, err := f.ReadAt(shdr[:], off); err != nil {
			return nil, corruptf("trailing bytes at %d are not a section", off)
		}
		kind := binary.LittleEndian.Uint32(shdr[0:])
		reserved := binary.LittleEndian.Uint32(shdr[4:])
		plen := binary.LittleEndian.Uint64(shdr[8:])
		sum := binary.LittleEndian.Uint64(shdr[16:])
		if reserved != 0 {
			return nil, corruptf("section at %d has nonzero reserved field", off)
		}
		if plen > uint64(st.Size()-off-sectionHeaderLen) {
			return nil, corruptf("section at %d claims %d payload bytes", off, plen)
		}
		if !haveRel && kind != secRelation {
			return nil, corruptf("section kind %d before the relation header", kind)
		}
		if kind == secRelation || kind == secMeta {
			payload := make([]byte, plen)
			if _, err := f.ReadAt(payload, off+sectionHeaderLen); err != nil {
				return nil, corruptf("section at %d is truncated", off)
			}
			if sectionSum(version, payload) != sum {
				return nil, corruptf("section at %d fails its checksum", off)
			}
			switch kind {
			case secRelation:
				d := &dec{b: payload}
				r, err := d.u64()
				if err != nil {
					return nil, err
				}
				nc, err := d.u32()
				if err != nil {
					return nil, err
				}
				if _, err := d.u32(); err != nil {
					return nil, err
				}
				name, err := d.str()
				if err != nil {
					return nil, err
				}
				info.Relation, info.Rows, info.Columns = name, int(r), int(nc)
				haveRel = true
			case secMeta:
				if err := json.Unmarshal(payload, &info.Meta); err != nil {
					return nil, corruptf("meta section is not valid JSON: %v", err)
				}
				haveMeta = true
			}
		}
		off += sectionHeaderLen + int64((plen+7)&^7)
	}
	if !haveRel {
		return nil, corruptf("no relation header")
	}
	return info, nil
}
