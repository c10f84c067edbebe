package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// diffDecode holds DecodeBinary to the oracle on one input: the same
// accept/reject decision, the same sentinel on reject, and on accept
// maps that re-encode byte-identically.
func diffDecode(t testing.TB, data []byte) {
	t.Helper()
	got, gerr := DecodeBinary(data)
	want, werr := oracleDecodeBinary(data)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("accept/reject diverged: decoder %v, oracle %v", gerr, werr)
	}
	if gerr != nil {
		for _, sentinel := range []error{ErrBadFormat, ErrVersion} {
			if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
				t.Fatalf("sentinel diverged: decoder %v, oracle %v", gerr, werr)
			}
		}
		return
	}
	if !bytes.Equal(EncodeBinary(got), EncodeBinary(want)) {
		t.Fatalf("decoder and oracle accepted %d bytes but decoded different maps", len(data))
	}
}

// differentialSeeds are the inputs both the fuzz target and the plain
// test start from: small valid maps (the fuzzer minimises every
// interesting input, which on a full-size tile eats the whole smoke),
// their prefixes, a complete map with bytes after it (accepted, as the
// format has no end marker), the forged-count probes, and a tombstone.
func differentialSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1300))
	var seeds [][]byte
	for i := 0; i < 3; i++ {
		valid := EncodeBinary(randomMap(rng))
		seeds = append(seeds, valid, append(append([]byte(nil), valid...), 0xff, 0x00, 0x7f))
		for _, cut := range []int{0, 1, 2, 4, 8, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			seeds = append(seeds, valid[:cut])
		}
	}
	tiny := core.NewMap("t")
	tiny.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(1, 2, 3), Attr: map[string]string{"type": "stop"}})
	seeds = append(seeds, EncodeBinary(tiny), EncodeBinary(core.NewMap("")))
	seeds = append(seeds, hostileSeeds()...)
	return append(seeds, EncodeTombstone(Tombstone{Layer: "base", TX: 1, TY: -2, Clock: 9, Created: 1, TTLSeconds: 60}))
}

// FuzzDecodeBinaryDifferential: for arbitrary bytes the cursor decoder
// and the bytes.Reader oracle agree (see diffDecode).
func FuzzDecodeBinaryDifferential(f *testing.F) {
	for _, s := range differentialSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffDecode(t, data) })
}

// TestDecodeBinaryDifferential is the fuzz target's deterministic
// share: the seeds, full-size tiles, then every truncation and every
// single-byte flip of random valid maps, which between them reach each
// error exit.
func TestDecodeBinaryDifferential(t *testing.T) {
	for _, s := range differentialSeeds() {
		diffDecode(t, s)
	}
	diffDecode(t, EncodeBinary(testWorld(t, 777)))
	diffDecode(t, urbanTile(t))
	rng := rand.New(rand.NewSource(1301))
	for trial := 0; trial < 4; trial++ {
		data := EncodeBinary(randomMap(rng))
		for i := 0; i <= len(data); i++ {
			diffDecode(t, data[:i])
		}
		mut := make([]byte, len(data))
		for i := range data {
			copy(mut, data)
			mut[i] ^= 0x55
			diffDecode(t, mut)
			mut[i] = 0xff // a continuation byte: stretches a varint, forges a count
			diffDecode(t, mut)
		}
	}
}

// polylines lists every polyline of a map, in a fixed order.
func polylines(m *core.Map) []geo.Polyline {
	var out []geo.Polyline
	for _, id := range m.LineIDs() {
		l, _ := m.Line(id)
		out = append(out, l.Geometry)
	}
	for _, id := range m.AreaIDs() {
		a, _ := m.Area(id)
		out = append(out, geo.Polyline(a.Outline))
	}
	for _, id := range m.LaneletIDs() {
		l, _ := m.Lanelet(id)
		out = append(out, l.Centerline)
	}
	for _, id := range m.BundleIDs() {
		b, _ := m.Bundle(id)
		out = append(out, b.RefLine)
	}
	return out
}

// TestDecodedPolylinesDoNotAlias: polylines of one decode are carved
// from shared arena chunks, so each must be capacity-capped — appending
// to one, then overwriting all of it, leaves every other one unchanged.
func TestDecodedPolylinesDoNotAlias(t *testing.T) {
	m, err := DecodeBinary(EncodeBinary(testWorld(t, 780)))
	if err != nil {
		t.Fatal(err)
	}
	pls := polylines(m)
	if len(pls) < 10 {
		t.Fatalf("only %d polylines decoded", len(pls))
	}
	for victim := range pls {
		snapshot := make([]geo.Polyline, len(pls))
		for i, pl := range pls {
			snapshot[i] = pl.Clone()
		}
		if cap(pls[victim]) != len(pls[victim]) {
			t.Fatalf("polyline %d: cap %d > len %d, an append would write into the arena", victim, cap(pls[victim]), len(pls[victim]))
		}
		grown := append(pls[victim], geo.V2(9e9, 9e9), geo.V2(-9e9, -9e9))
		for i := range grown {
			grown[i] = geo.V2(1e9, 1e9)
		}
		for i := range pls[victim] {
			pls[victim][i] = geo.V2(-1e9, -1e9)
		}
		for i, pl := range pls {
			if i == victim {
				continue
			}
			for j := range pl {
				if pl[j] != snapshot[i][j] {
					t.Fatalf("writing polyline %d changed polyline %d vertex %d", victim, i, j)
				}
			}
		}
		copy(pls[victim], snapshot[victim])
	}
}

// urbanTile is the largest default-size tile of a worldgen urban grid —
// the payload a vehicle's region pull decodes nine of.
func urbanTile(t testing.TB) []byte {
	var largest []byte
	for _, tm := range (Tiler{}).Split(testWorldSized(t, 781, 8), "base") {
		if data := EncodeBinary(tm); len(data) > len(largest) {
			largest = data
		}
	}
	return largest
}

// TestDecodeAllocBudget pins the decoder at no more than half the
// allocations of the reader it replaced, on a real urban tile.
func TestDecodeAllocBudget(t *testing.T) {
	tile := urbanTile(t)
	run := func(decode func([]byte) (*core.Map, error)) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := decode(tile); err != nil {
				t.Fatal(err)
			}
		})
	}
	before, after := run(oracleDecodeBinary), run(DecodeBinary)
	t.Logf("%d-byte tile: %.0f allocs with the bytes.Reader decoder, %.0f now", len(tile), before, after)
	if after > before/2 {
		t.Fatalf("decode allocates %.0f times, budget is half of %.0f", after, before)
	}
}

// TestPeekClockTruncationAndHostileCounts runs the decoder's truncation
// and forged-count probes against the header-only read.
func TestPeekClockTruncationAndHostileCounts(t *testing.T) {
	m := testWorld(t, 782)
	m.SetClock(123456)
	data := EncodeBinary(m)
	headerLen := 0
	for i := 0; i <= len(data); i++ {
		clock, err := PeekClock(data[:i])
		switch {
		case err == nil && clock != 123456:
			t.Fatalf("prefix %d: clock %d", i, clock)
		case err == nil && headerLen == 0:
			headerLen = i
		case err != nil && headerLen != 0:
			t.Fatalf("prefix %d fails after prefix %d succeeded: %v", i, headerLen, err)
		case err != nil && !errors.Is(err, ErrBadFormat):
			t.Fatalf("prefix %d: non-sentinel error %v", i, err)
		}
	}
	if headerLen == 0 || headerLen > 64 {
		t.Fatalf("header ends at %d", headerLen)
	}
	seeds := hostileSeeds()
	if _, err := PeekClock(seeds[len(seeds)-1]); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("forged name length: %v", err)
	}
	for i, s := range seeds {
		if _, err := DecodeTombstone(s); !errors.Is(err, ErrNotTombstone) {
			t.Errorf("hostile seed %d as tombstone: %v", i, err)
		}
	}
	// A tombstone whose layer name claims more bytes than follow.
	w := &writer{}
	w.uvarint(tombstoneMagic)
	w.uvarint(tombstoneVersion)
	w.uvarint(1 << 50)
	if _, err := DecodeTombstone(w.buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("forged tombstone layer length: %v", err)
	}
}
