package storage

import (
	"bytes"
	"errors"
	"testing"

	"hdmaps/internal/core"
)

func testTombstone() Tombstone {
	return Tombstone{Layer: "base", TX: 3, TY: -7, Clock: 42, Created: 1754000000, TTLSeconds: 86400}
}

func TestTombstoneRoundTrip(t *testing.T) {
	ts := testTombstone()
	data := EncodeTombstone(ts)
	got, err := DecodeTombstone(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != ts {
		t.Fatalf("round trip: got %+v want %+v", got, ts)
	}
	if !bytes.Equal(EncodeTombstone(got), data) {
		t.Fatal("re-encode is not byte-identical")
	}
	if !IsTombstone(data) {
		t.Fatal("IsTombstone(marker) = false")
	}
}

func TestTombstoneNeverDecodesAsTile(t *testing.T) {
	data := EncodeTombstone(testTombstone())
	if _, err := DecodeBinary(data); err == nil {
		t.Fatal("tombstone decoded as a live tile")
	}
	// And the reverse: a live tile is not a tombstone.
	tile := EncodeBinary(core.NewMap("v1"))
	if _, err := DecodeTombstone(tile); !errors.Is(err, ErrNotTombstone) {
		t.Fatalf("tile decoded as tombstone: err=%v", err)
	}
	if IsTombstone(tile) {
		t.Fatal("IsTombstone(tile) = true")
	}
}

func TestTombstoneDecodeTruncated(t *testing.T) {
	data := EncodeTombstone(testTombstone())
	for i := 0; i < len(data); i++ {
		if _, err := DecodeTombstone(data[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
}

func TestTombstoneDecodeMutated(t *testing.T) {
	orig := EncodeTombstone(testTombstone())
	for i := 0; i < len(orig); i++ {
		data := append([]byte(nil), orig...)
		data[i] ^= 0xff
		got, err := DecodeTombstone(data)
		if err == nil && got != testTombstone() {
			t.Fatalf("bit flip at %d decoded to different marker %+v", i, got)
		}
	}
}

func TestTombstoneDecodeTrailing(t *testing.T) {
	data := append(EncodeTombstone(testTombstone()), 0x00)
	if _, err := DecodeTombstone(data); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing byte: err=%v, want ErrBadFormat", err)
	}
}

func TestTombstoneDecodeNonCanonical(t *testing.T) {
	// Re-pad the final CRC uvarint: same value, longer encoding, and the
	// CRC still verifies (it covers only bytes before itself). Canonical
	// form must reject it.
	ts := testTombstone()
	canon := EncodeTombstone(ts)
	w := &writer{}
	w.uvarint(tombstoneMagic)
	w.uvarint(tombstoneVersion)
	w.str(ts.Layer)
	w.varint(int64(ts.TX))
	w.varint(int64(ts.TY))
	w.uvarint(ts.Clock)
	w.uvarint(ts.Created)
	w.uvarint(ts.TTLSeconds)
	body := w.buf
	crc := canon[len(body):]
	// Pad: uvarint continuation — rewrite last CRC byte with high bit set
	// plus an extra 0x00 group encodes the same value in more bytes.
	padded := append(append([]byte(nil), body...), crc[:len(crc)-1]...)
	padded = append(padded, crc[len(crc)-1]|0x80, 0x00)
	if bytes.Equal(padded, canon) {
		t.Fatal("padding did not change encoding")
	}
	if _, err := DecodeTombstone(padded); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("non-canonical encoding: err=%v, want ErrBadFormat", err)
	}
}

func TestParseReplicaState(t *testing.T) {
	cases := []ReplicaState{
		{},
		{Tomb: true, Clock: 7},
		{Found: true, Clock: 12, Sum: "00c0ffee"},
	}
	for _, c := range cases {
		got, err := ParseReplicaState(c.String())
		if err != nil {
			t.Fatalf("parse %q: %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("parse %q: got %+v want %+v", c.String(), got, c)
		}
	}
	for _, bad := range []string{"", "alive", "tomb:", "tomb:x", "live:1", "live:x:aa"} {
		if _, err := ParseReplicaState(bad); err == nil {
			t.Fatalf("parse %q succeeded", bad)
		}
	}
}

func TestFresherState(t *testing.T) {
	// Clock dominates.
	if !FresherState(false, 2, []byte("a"), true, 1, []byte("z")) {
		t.Fatal("higher clock should win regardless of kind")
	}
	// Clock tie: tombstone beats live.
	if !FresherState(true, 5, []byte("a"), false, 5, []byte("z")) {
		t.Fatal("tombstone should win a clock tie")
	}
	if FresherState(false, 5, []byte("z"), true, 5, []byte("a")) {
		t.Fatal("live tile should lose a clock tie against a tombstone")
	}
	// Same kind, same clock: bytes decide.
	if !FresherState(false, 5, []byte("b"), false, 5, []byte("a")) {
		t.Fatal("byte-greater payload should win a same-kind tie")
	}
	// Full tie: not fresher (stable).
	if FresherState(true, 5, []byte("a"), true, 5, []byte("a")) {
		t.Fatal("identical states must not be 'fresher'")
	}
}

func FuzzTombstoneDecode(f *testing.F) {
	f.Add(EncodeTombstone(testTombstone()))
	f.Add(EncodeTombstone(Tombstone{Layer: "", Clock: 0}))
	f.Add(EncodeTombstone(Tombstone{Layer: "x", TX: -1 << 31, TY: 1<<31 - 1, Clock: ^uint64(0), Created: 1, TTLSeconds: 2}))
	f.Add([]byte{})
	f.Add([]byte{0xd4, 0xaa, 0x91, 0xc2, 0x04})
	f.Add(EncodeBinary(core.NewMap("fuzz")))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeTombstone(data) // must never panic
		if err != nil {
			if !errors.Is(err, ErrNotTombstone) && !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Anything that decodes must round-trip byte-identically...
		if !bytes.Equal(EncodeTombstone(ts), data) {
			t.Fatalf("accepted non-canonical encoding: %+v", ts)
		}
		// ...and must never also parse as a live tile.
		if _, err := DecodeBinary(data); err == nil {
			t.Fatal("payload decodes as both tombstone and tile")
		}
	})
}
