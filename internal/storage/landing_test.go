package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/obs"
	"hdmaps/internal/worldgen"
)

// cityRegion is the payloads of the 3×3 window of default-size tiles
// around the middle tile of a 24×24 worldgen grid, in Morton order —
// the region a vehicle of the benchmark's urban workload pulls.
var cityRegion = sync.OnceValue(func() [][]byte {
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: 24, Cols: 24, Lanes: 2, TrafficLights: true,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	tiles := Tiler{}.Split(g.Map, "base")
	keys := make([]TileKey, 0, len(tiles))
	for k := range tiles {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Morton() < keys[j].Morton() })
	mid := keys[len(keys)/2]
	var region [][]byte
	for _, k := range keys {
		if k.TX >= mid.TX-1 && k.TX <= mid.TX+1 && k.TY >= mid.TY-1 && k.TY <= mid.TY+1 {
			region = append(region, EncodeBinary(tiles[k]))
		}
	}
	if len(region) != 9 {
		panic("the middle tile of the grid has no 3×3 window around it")
	}
	return region
})

// decodeRegion parses the payloads and lands them in one map, as
// FetchRegion and LoadMap do.
func decodeRegion(payloads [][]byte) (*core.Map, error) {
	tiles := make([]*parsedTile, len(payloads))
	for i, data := range payloads {
		var err error
		if tiles[i], err = parseTile(data); err != nil {
			return nil, err
		}
	}
	return mapOf("region", tiles...)
}

// BenchmarkDecodeTile and BenchmarkDecodeRegion time the decode kernel
// on city tiles with nothing around it: profile them with
// go test -run '^$' -bench DecodeRegion -cpuprofile cpu.out ./internal/storage.
func BenchmarkDecodeTile(b *testing.B) {
	tile := cityRegion()[4]
	b.SetBytes(int64(len(tile)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(tile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRegion(b *testing.B) {
	region := cityRegion()
	var size int
	for _, data := range region {
		size += len(data)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRegion(region); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegionDecodeAllocBudget pins what the slabs and arenas buy: a 3×3
// city region parses and lands in at most 1 000 allocations, where a
// struct per element and a map per tile took 8 267.
func TestRegionDecodeAllocBudget(t *testing.T) {
	region := cityRegion()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodeRegion(region); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a 3x3 city region decodes in %.0f allocations", allocs)
	if allocs > 1000 {
		t.Fatalf("%.0f allocations, budget is 1000", allocs)
	}
}

// TestPeekClockAllocatesNothing: the router's freshness comparisons,
// digest rows and tombstone checks read the clock past the tile's name
// without making a string of it.
func TestPeekClockAllocatesNothing(t *testing.T) {
	tile := cityRegion()[0]
	want, err := DecodeBinary(tile)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if clock, err := PeekClock(tile); err != nil || clock != want.Clock {
			t.Fatalf("PeekClock = %d, %v; the tile's clock is %d", clock, err, want.Clock)
		}
	})
	if allocs != 0 {
		t.Fatalf("PeekClock allocates %.0f times", allocs)
	}
}

// records re-encodes m with edit applied to each table's records (one
// byte slice per element, in ascending ID order): the way to payloads no
// map encodes to — an element twice, records out of order, one tile's
// element in another.
func records(m *core.Map, edit func(kind int, recs [][]byte) [][]byte) []byte {
	enc := EncodeFrom(nil, m, core.Changes{})
	w := &writer{}
	w.uvarint(binaryMagic)
	w.uvarint(binaryVersion)
	w.str(m.Name)
	w.uvarint(m.Clock)
	for kind := range enc.tables {
		tab := &enc.tables[kind]
		recs := make([][]byte, len(tab.ids))
		for i := range recs {
			recs[i] = tab.record(enc.Bytes, i)
		}
		recs = edit(kind, recs)
		w.uvarint(uint64(len(recs)))
		for _, rec := range recs {
			w.buf = append(w.buf, rec...)
		}
	}
	return w.buf
}

// landingPayloads makes the tiles of a random map and damages some: cut
// short, a byte flipped, records swapped (still a valid tile), an
// element twice in one tile, an element of another tile added.
func landingPayloads(rng *rand.Rand) [][]byte {
	var tiles []*core.Map
	for len(tiles) < 2 {
		tiles = tiles[:0]
		split := Tiler{TileSize: 200 + 400*rng.Float64()}.Split(randomMap(rng), "base")
		keys := make([]TileKey, 0, len(split))
		for k := range split {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Morton() < keys[j].Morton() })
		for _, k := range keys[:min(len(keys), 2+rng.Intn(5))] {
			tiles = append(tiles, split[k])
		}
	}
	payloads := make([][]byte, len(tiles))
	for i, tm := range tiles {
		payloads[i] = EncodeBinary(tm)
	}
	// pick edits the records of one non-empty table of a tile.
	pick := func(tm *core.Map, change func(recs [][]byte) [][]byte) []byte {
		table, seen := -1, 0
		records(tm, func(kind int, recs [][]byte) [][]byte {
			if len(recs) > 0 {
				if seen++; rng.Intn(seen) == 0 {
					table = kind
				}
			}
			return recs
		})
		return records(tm, func(kind int, recs [][]byte) [][]byte {
			if kind == table {
				return change(recs)
			}
			return recs
		})
	}
	for i, tm := range tiles {
		data := payloads[i]
		switch rng.Intn(10) {
		case 0:
			payloads[i] = data[:rng.Intn(len(data))]
		case 1:
			mut := append([]byte(nil), data...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			payloads[i] = mut
		case 2:
			payloads[i] = pick(tm, func(recs [][]byte) [][]byte {
				a, b := rng.Intn(len(recs)), rng.Intn(len(recs))
				recs[a], recs[b] = recs[b], recs[a]
				return recs
			})
		case 3:
			payloads[i] = pick(tm, func(recs [][]byte) [][]byte {
				at := rng.Intn(len(recs) + 1)
				dup := recs[rng.Intn(len(recs))]
				return append(recs[:at:at], append([][]byte{dup}, recs[at:]...)...)
			})
		case 4:
			// An element of another tile, where its own tile's fit.
			other := tiles[(i+1+rng.Intn(len(tiles)-1))%len(tiles)]
			var stolen []byte
			from := -1
			records(other, func(kind int, recs [][]byte) [][]byte {
				if len(recs) > 0 && (from < 0 || rng.Intn(2) == 0) {
					from, stolen = kind, recs[rng.Intn(len(recs))]
				}
				return recs
			})
			payloads[i] = records(tm, func(kind int, recs [][]byte) [][]byte {
				if kind == from {
					return append(recs, stolen)
				}
				return recs
			})
		}
	}
	return payloads
}

// holdsAny reports whether region holds an element of a kind and ID that
// tile holds too.
func holdsAny(region, tile *core.Map) bool {
	for _, id := range tile.PointIDs() {
		if _, err := region.Point(id); err == nil {
			return true
		}
	}
	for _, id := range tile.LineIDs() {
		if _, err := region.Line(id); err == nil {
			return true
		}
	}
	for _, id := range tile.AreaIDs() {
		if _, err := region.Area(id); err == nil {
			return true
		}
	}
	for _, id := range tile.LaneletIDs() {
		if _, err := region.Lanelet(id); err == nil {
			return true
		}
	}
	for _, id := range tile.BundleIDs() {
		if _, err := region.Bundle(id); err == nil {
			return true
		}
	}
	for _, id := range tile.RegulatoryIDs() {
		if _, err := region.Regulatory(id); err == nil {
			return true
		}
	}
	return false
}

// restoreEach restores tile's elements into region one at a time, the
// way every decoder did before the slabs, and stops at the first that
// cannot be.
func restoreEach(region, tile *core.Map) error {
	for _, id := range tile.PointIDs() {
		e, _ := tile.Point(id)
		if err := region.RestorePoint(*e); err != nil {
			return err
		}
	}
	for _, id := range tile.LineIDs() {
		e, _ := tile.Line(id)
		if err := region.RestoreLine(*e); err != nil {
			return err
		}
	}
	for _, id := range tile.AreaIDs() {
		e, _ := tile.Area(id)
		if err := region.RestoreArea(*e); err != nil {
			return err
		}
	}
	for _, id := range tile.LaneletIDs() {
		e, _ := tile.Lanelet(id)
		if err := region.RestoreLanelet(*e); err != nil {
			return err
		}
	}
	for _, id := range tile.BundleIDs() {
		e, _ := tile.Bundle(id)
		if err := region.RestoreBundle(*e); err != nil {
			return err
		}
	}
	for _, id := range tile.RegulatoryIDs() {
		e, _ := tile.Regulatory(id)
		if err := region.RestoreRegulatory(*e); err != nil {
			return err
		}
	}
	region.SetClock(max(region.Clock, tile.Clock))
	return nil
}

// nextPointID is the ID the map would give the next element added.
func nextPointID(m *core.Map) core.ID { return m.Clone().AddPoint(core.PointElement{}) }

// landingCheck holds parse and land, tile by tile over any payloads, to
// the reference decoder: a payload parses exactly when the oracle accepts
// it, and fails with a codec sentinel; a parsed tile lands exactly when
// the region holds none of its elements, and fails with core.ErrIDTaken;
// after every tile the region encodes byte for byte as the union of the
// oracle's maps of the tiles that landed — so a refused tile left
// nothing, in the tables, the clock or the next ID — and mapOf over the
// parsed tiles is that union, or ErrIDTaken if any tile was refused. The
// result is "" or what went wrong.
func landingCheck(payloads [][]byte, parse func([]byte) (*parsedTile, error), land func(*core.Map, *parsedTile) error) string {
	region, want := core.NewMap("region"), core.NewMap("region")
	var parsed []*parsedTile
	refused := false
	for i, data := range payloads {
		tile, perr := parse(data)
		om, oerr := oracleDecodeBinary(data)
		if (perr == nil) != (oerr == nil) {
			return fmt.Sprintf("tile %d: parse says %v, the oracle %v", i, perr, oerr)
		}
		if perr != nil {
			if !errors.Is(perr, ErrBadFormat) && !errors.Is(perr, ErrVersion) {
				return fmt.Sprintf("tile %d: parse error is not a codec sentinel: %v", i, perr)
			}
			continue
		}
		again, _ := parse(data) // a tile is landed once; mapOf gets its own
		parsed = append(parsed, again)
		next := nextPointID(region)
		lerr := land(region, tile)
		if holdsAny(want, om) {
			refused = true
			if !errors.Is(lerr, core.ErrIDTaken) {
				return fmt.Sprintf("tile %d holds an element the region has: land says %v", i, lerr)
			}
			if got := nextPointID(region); got != next {
				return fmt.Sprintf("tile %d was refused and moved the region's next ID from %d to %d", i, next, got)
			}
		} else {
			if lerr != nil {
				return fmt.Sprintf("tile %d: land: %v", i, lerr)
			}
			if err := restoreEach(want, om); err != nil {
				return fmt.Sprintf("tile %d: reference restore: %v", i, err)
			}
		}
		if !bytes.Equal(EncodeBinary(region), EncodeBinary(want)) {
			return fmt.Sprintf("region differs from the union of the accepted tiles after tile %d (%d vs %d elements, clock %d vs %d)",
				i, region.NumElements(), want.NumElements(), region.Clock, want.Clock)
		}
	}
	whole, err := mapOf("region", parsed...)
	switch {
	case refused && !errors.Is(err, core.ErrIDTaken):
		return fmt.Sprintf("two tiles hold one element: mapOf says %v", err)
	case !refused && err != nil:
		return fmt.Sprintf("mapOf: %v", err)
	case !refused && !bytes.Equal(EncodeBinary(whole), EncodeBinary(want)):
		return "mapOf differs from the union of the tiles"
	}
	return ""
}

// landTile is how mapOf lands one tile.
func landTile(region *core.Map, t *parsedTile) error { return t.land(region) }

// TestRegionLanding is the seeded property (landingPayloads,
// landingCheck). A failure prints its seed; LANDING_SEED replays one.
func TestRegionLanding(t *testing.T) {
	first, n := int64(1), int64(2000)
	if v := os.Getenv("LANDING_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad LANDING_SEED %q", v)
		}
		first, n = seed, 1
	}
	for seed := first; seed < first+n; seed++ {
		payloads := landingPayloads(rand.New(rand.NewSource(seed)))
		if msg := landingCheck(payloads, parseTile, landTile); msg != "" {
			t.Fatalf("seed %d (replay with LANDING_SEED=%d): %s", seed, seed, msg)
		}
	}
}

// FuzzRegionLanding is the same property with the fuzzer's hand on the
// bytes: one more flip in a tile of its choosing, and a payload of its
// own landed last.
func FuzzRegionLanding(f *testing.F) {
	f.Add(int64(1), uint16(0), byte(0), []byte(nil))
	f.Add(int64(2), uint16(77), byte(0xff), EncodeBinary(core.NewMap("")))
	f.Add(int64(3), uint16(9), byte(0x80), hostileSeeds()[1])
	f.Fuzz(func(t *testing.T, seed int64, at uint16, flip byte, extra []byte) {
		payloads := landingPayloads(rand.New(rand.NewSource(seed)))
		if victim := payloads[int(at)%len(payloads)]; len(victim) > 0 {
			mut := append([]byte(nil), victim...)
			mut[int(at)%len(mut)] ^= flip
			payloads[int(at)%len(payloads)] = mut
		}
		payloads = append(payloads, extra)
		if msg := landingCheck(payloads, parseTile, landTile); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestRegionLandingCatchesMutants is the property's mutation check: the
// parse short of its ID check (readTile), and a landing that keeps what
// it restored before the element it could not. Either must fail the
// property on a fair share of the seeds, and in the way that names it.
func TestRegionLandingCatchesMutants(t *testing.T) {
	landNoRollback := func(region *core.Map, t *parsedTile) error {
		one := core.NewMap("")
		if err := t.land(one); err != nil {
			return err
		}
		return restoreEach(region, one)
	}
	for _, mutant := range []struct {
		name   string
		parse  func([]byte) (*parsedTile, error)
		land   func(*core.Map, *parsedTile) error
		caught string
	}{
		{"no duplicate check", readTile, landTile, "parse says <nil>"},
		{"no roll-back", parseTile, landNoRollback, "region differs"},
	} {
		const seeds = 300
		caught := 0
		for seed := int64(1); seed <= seeds; seed++ {
			payloads := landingPayloads(rand.New(rand.NewSource(seed)))
			if msg := landingCheck(payloads, mutant.parse, mutant.land); strings.Contains(msg, mutant.caught) {
				caught++
			}
		}
		t.Logf("%s: caught in %d of %d schedules", mutant.name, caught, seeds)
		if caught < seeds/20 {
			t.Errorf("%s: caught in only %d of %d schedules", mutant.name, caught, seeds)
		}
	}
}

// TestWithinTileDuplicateIsAnIntegrityFailure: a tile holding an element
// twice is refused where it is parsed, so the client counts an integrity
// failure and asks again, as for any damaged payload, and the server
// refuses the upload.
func TestWithinTileDuplicateIsAnIntegrityFailure(t *testing.T) {
	tm := testWorld(t, 791)
	dup := records(tm, func(kind int, recs [][]byte) [][]byte {
		if kind == kindLanelet {
			recs = append(recs, recs[0])
		}
		return recs
	})
	if _, err := parseTile(dup); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("a lanelet twice: parse says %v", err)
	}
	key := TileKey{Layer: "base", TX: 1, TY: 2}
	store := NewMemStore()
	_ = store.Put(key, dup) // corrupted at rest: the server's checksum matches
	reg := obs.NewRegistry()
	c := &Client{HTTP: &http.Client{Transport: &handlerTransport{h: NewTileServer(store)}}, Base: "http://tiles",
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}, Metrics: reg}
	if _, err := c.GetTile(context.Background(), key); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("GetTile: %v", err)
	}
	if n := reg.Counter("storage.client.integrity_failures").Value(); n != 3 {
		t.Errorf("%d integrity failures counted over 3 attempts", n)
	}
	w := httptest.NewRecorder()
	NewTileServer(NewMemStore()).ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/tiles/base/1/2", bytes.NewReader(dup)))
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("PUT of a tile with a lanelet twice: %d", w.Code)
	}
}

// TestDecodedElementsDoNotAlias: a landed region's elements of a kind
// sit in one array and its ID lists and polylines in shared chunks, so
// each list must be capacity-capped — appending to any, and overwriting
// what append returned, changes no element. The appends run beside a
// reader of the whole map, so under -race a write into a neighbour is
// also a reported race.
func TestDecodedElementsDoNotAlias(t *testing.T) {
	m, err := decodeRegion(cityRegion())
	if err != nil {
		t.Fatal(err)
	}
	before := EncodeBinary(m)
	var lists [][]core.ID
	for _, id := range m.LaneletIDs() {
		l, _ := m.Lanelet(id)
		lists = append(lists, l.Successors, l.Regulatory)
	}
	for _, id := range m.BundleIDs() {
		b, _ := m.Bundle(id)
		lists = append(lists, b.Lanelets)
	}
	for _, id := range m.RegulatoryIDs() {
		r, _ := m.Regulatory(id)
		lists = append(lists, r.Devices, r.Lanelets)
	}
	pls := polylines(m)
	if len(lists) < 100 || len(pls) < 100 {
		t.Fatalf("only %d ID lists and %d polylines decoded", len(lists), len(pls))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, list := range lists {
			if cap(list) != len(list) {
				t.Errorf("an ID list has cap %d > len %d: an append would write into the arena", cap(list), len(list))
				return
			}
			grown := append(list, 1<<40, 1<<41)
			for i := range grown {
				grown[i] = 1 << 42
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, pl := range pls {
			grown := append(pl, geo.V2(9e9, 9e9))
			for i := range grown {
				grown[i] = geo.V2(-9e9, -9e9)
			}
		}
	}()
	during := EncodeBinary(m)
	wg.Wait()
	if !bytes.Equal(during, before) || !bytes.Equal(EncodeBinary(m), before) {
		t.Fatal("appending to decoded lists changed the map")
	}
}
