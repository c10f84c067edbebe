package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
)

// Tombstone format constants. The magic is deliberately distinct from
// binaryMagic ("HDMP" vs "HDMT"): a tombstone marker can never decode
// as a live tile, and a live tile can never decode as a tombstone, so
// no replay, repair, or cache path can confuse a deletion with data.
const (
	tombstoneMagic   = 0x48444d54 // "HDMT"
	tombstoneVersion = 1
)

// ErrNotTombstone is returned by DecodeTombstone for payloads that are
// not tombstone markers at all (wrong magic) — as opposed to damaged
// markers, which return ErrBadFormat.
var ErrNotTombstone = errors.New("storage: not a tombstone")

// Tombstone is a durable deletion marker: the record that key
// {Layer, TX, TY} was deleted at logical clock Clock. Markers replicate
// exactly like tiles (same freshness total order, same hinted-handoff
// and repair machinery), which is what makes deletes as durable as
// writes: a replayed stale PUT loses to the marker instead of
// resurrecting the tile.
type Tombstone struct {
	// Layer/TX/TY name the deleted tile. The marker is self-describing
	// so a copy parked under a handoff layer still knows its true key.
	Layer string
	TX    int32
	TY    int32
	// Clock is the deletion's logical clock; it must dominate every
	// write the delete is meant to erase.
	Clock uint64
	// Created is the marker's birth time (unix seconds), stamped once
	// by the deleting router so all replicas hold identical bytes.
	Created uint64
	// TTLSeconds is the minimum marker age before GC may reclaim it.
	// It must exceed the hint/repair horizon — see the GC safety
	// argument in DESIGN.md §11.
	TTLSeconds uint64
}

// Key returns the deleted tile's key.
func (t Tombstone) Key() TileKey {
	return TileKey{Layer: t.Layer, TX: t.TX, TY: t.TY}
}

// EncodeTombstone serialises a marker: magic, version, key, clock,
// created, TTL, then a CRC32-C of everything before it. Encoding is
// canonical — DecodeTombstone rejects any byte stream that does not
// round-trip identically, so replicas holding "the same" tombstone are
// byte-identical by construction.
func EncodeTombstone(t Tombstone) []byte {
	w := &writer{}
	w.uvarint(tombstoneMagic)
	w.uvarint(tombstoneVersion)
	w.str(t.Layer)
	w.varint(int64(t.TX))
	w.varint(int64(t.TY))
	w.uvarint(t.Clock)
	w.uvarint(t.Created)
	w.uvarint(t.TTLSeconds)
	w.uvarint(uint64(crc32.Checksum(w.buf, castagnoli)))
	return w.buf
}

// DecodeTombstone parses a marker. Wrong magic returns ErrNotTombstone
// (the payload is something else — possibly a live tile); anything
// structurally damaged, CRC-mismatched, or non-canonical returns
// ErrBadFormat, and unsupported versions return ErrVersion.
func DecodeTombstone(data []byte) (Tombstone, error) {
	var t Tombstone
	r := &reader{buf: data}
	magic := r.uvarint()
	if r.err != nil {
		return t, ErrNotTombstone
	}
	if magic != tombstoneMagic {
		return t, fmt.Errorf("magic %x: %w", magic, ErrNotTombstone)
	}
	version := r.uvarint()
	if r.err == nil && version != tombstoneVersion {
		return t, fmt.Errorf("version %d: %w", version, ErrVersion)
	}
	t.Layer = r.str()
	tx, ty := r.varint(), r.varint()
	if tx < -1<<31 || tx > 1<<31-1 || ty < -1<<31 || ty > 1<<31-1 {
		return t, fmt.Errorf("%w: tile coordinate out of range", ErrBadFormat)
	}
	t.TX, t.TY = int32(tx), int32(ty)
	t.Clock = r.uvarint()
	t.Created = r.uvarint()
	t.TTLSeconds = r.uvarint()
	// The CRC covers every byte before it.
	crcAt := r.off
	want := r.uvarint()
	if r.err != nil {
		return t, r.err
	}
	if got := uint64(crc32.Checksum(data[:crcAt], castagnoli)); got != want {
		return t, fmt.Errorf("%w: tombstone crc mismatch", ErrBadFormat)
	}
	if r.rest() != 0 {
		return t, fmt.Errorf("%w: %d trailing bytes after tombstone", ErrBadFormat, r.rest())
	}
	// Canonical-form check: varints admit padded encodings, and a
	// padded marker would break the byte-identical-replicas invariant
	// while still carrying a valid CRC an attacker can recompute.
	if !bytes.Equal(EncodeTombstone(t), data) {
		return t, fmt.Errorf("%w: non-canonical tombstone encoding", ErrBadFormat)
	}
	return t, nil
}

// IsTombstone reports whether a payload carries the tombstone magic —
// a cheap sniff for dispatch; full validation is DecodeTombstone's job.
func IsTombstone(data []byte) bool {
	r := &reader{buf: data}
	return r.uvarint() == tombstoneMagic
}
