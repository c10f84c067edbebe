package storage

import (
	"errors"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// hostileSeeds crafts inputs that historically break length-prefixed
// decoders: valid headers followed by forged huge counts.
func hostileSeeds() [][]byte {
	var out [][]byte
	header := func() *writer {
		w := &writer{}
		w.uvarint(binaryMagic)
		w.uvarint(binaryVersion)
		w.str("x")
		w.uvarint(0) // clock
		return w
	}
	// Huge point count with no payload behind it.
	w := header()
	w.uvarint(1 << 62)
	out = append(out, w.buf)
	// One line whose polyline claims 2^40 vertices.
	w = header()
	w.uvarint(0)       // points
	w.uvarint(1)       // lines
	w.uvarint(1)       // id
	w.uvarint(0)       // class
	w.uvarint(0)       // boundary
	w.uvarint(1 << 40) // polyline vertex count — must not allocate
	out = append(out, w.buf)
	// Huge string length in the map name.
	w = &writer{}
	w.uvarint(binaryMagic)
	w.uvarint(binaryVersion)
	w.uvarint(1 << 50) // name length
	out = append(out, w.buf)
	return out
}

// FuzzDecodeBinary asserts the decode path is total: arbitrary bytes
// either decode to a re-encodable map or return a wrapped ErrBadFormat/
// ErrVersion — never a panic, never an unbounded allocation. This is
// the tile server's trust boundary: every uploaded tile and every
// cached payload goes through DecodeBinary.
func FuzzDecodeBinary(f *testing.F) {
	m := testWorld(f, 777)
	valid := EncodeBinary(m)
	f.Add(valid)
	for _, cut := range []int{0, 1, 2, 4, 8, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	tiny := core.NewMap("t")
	tiny.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(1, 2, 3)})
	f.Add(EncodeBinary(tiny))
	for _, s := range hostileSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dm, err := DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decode error is not a codec sentinel: %v", err)
			}
			return
		}
		// A successful decode must survive a round trip.
		re := EncodeBinary(dm)
		if _, err := DecodeBinary(re); err != nil {
			t.Fatalf("re-encode of decoded map does not decode: %v", err)
		}
	})
}

// TestDecodeBinaryTruncation truncates a real tile at every byte
// offset: every strict prefix must fail cleanly (the format has no
// trailing padding, so no prefix is a complete map) and never panic.
func TestDecodeBinaryTruncation(t *testing.T) {
	m := testWorld(t, 778)
	data := EncodeBinary(m)
	if _, err := DecodeBinary(data); err != nil {
		t.Fatalf("full tile does not decode: %v", err)
	}
	for i := 0; i < len(data); i++ {
		dm, err := DecodeBinary(data[:i])
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly (%d elements)", i, len(data), dm.NumElements())
		}
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation at %d: non-sentinel error %v", i, err)
		}
	}
}

// TestDecodeBinaryHostileCounts runs the crafted over-allocation
// probes directly (the fuzz corpus, minus the fuzzer).
func TestDecodeBinaryHostileCounts(t *testing.T) {
	for i, s := range hostileSeeds() {
		if _, err := DecodeBinary(s); err == nil {
			t.Errorf("hostile seed %d decoded cleanly", i)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("hostile seed %d: non-sentinel error %v", i, err)
		}
	}
}

// TestDecodeBinaryBitFlips flips each byte of a real tile in turn —
// the single-tile analogue of wire corruption. Decoding may succeed
// (the flip can land in a float) but must never panic, and a reported
// error must be a codec sentinel.
func TestDecodeBinaryBitFlips(t *testing.T) {
	m := testWorld(t, 779)
	data := EncodeBinary(m)
	for i := 0; i < len(data); i++ {
		cp := make([]byte, len(data))
		copy(cp, data)
		cp[i] ^= 0x55
		dm, err := DecodeBinary(cp)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrVersion) {
				t.Fatalf("flip at %d: non-sentinel error %v", i, err)
			}
			continue
		}
		_ = EncodeBinary(dm)
	}
}
