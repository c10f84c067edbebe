package storage

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/worldgen"
)

func testWorld(t testing.TB, seed int64) *core.Map {
	t.Helper()
	return testWorldSized(t, seed, 2)
}

// testWorldSized is a rows x (rows+1) urban grid.
func testWorldSized(t testing.TB, seed int64, rows int) *core.Map {
	t.Helper()
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: rows, Cols: rows + 1, Block: 150, Lanes: 2, TrafficLights: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g.Map
}

// mapsEquivalent compares two maps structurally.
func mapsEquivalent(t *testing.T, a, b *core.Map) {
	t.Helper()
	ap, al, aa, all, ab, ar := a.Counts()
	bp, bl, ba, bll, bb, br := b.Counts()
	if ap != bp || al != bl || aa != ba || all != bll || ab != bb || ar != br {
		t.Fatalf("counts differ: %v vs %v", []int{ap, al, aa, all, ab, ar}, []int{bp, bl, ba, bll, bb, br})
	}
	// The clock may be restored as the max element stamp (tiler paths),
	// never beyond the original.
	if b.Clock > a.Clock || a.Name != b.Name {
		t.Fatalf("header differs: clock %d vs %d, name %q vs %q", a.Clock, b.Clock, a.Name, b.Name)
	}
	for _, id := range a.PointIDs() {
		pa, _ := a.Point(id)
		pb, err := b.Point(id)
		if err != nil {
			t.Fatalf("point %d missing: %v", id, err)
		}
		if pa.Class != pb.Class || pa.Pos.Dist(pb.Pos) > 0.002 || pa.Meta != pb.Meta {
			t.Fatalf("point %d differs: %+v vs %+v", id, pa, pb)
		}
		if len(pa.Attr) != len(pb.Attr) {
			t.Fatalf("point %d attrs differ", id)
		}
		for k, v := range pa.Attr {
			if pb.Attr[k] != v {
				t.Fatalf("point %d attr %q differs", id, k)
			}
		}
	}
	for _, id := range a.LineIDs() {
		la, _ := a.Line(id)
		lb, err := b.Line(id)
		if err != nil {
			t.Fatalf("line %d missing", id)
		}
		if la.Class != lb.Class || la.Boundary != lb.Boundary || len(la.Geometry) != len(lb.Geometry) {
			t.Fatalf("line %d differs", id)
		}
		for i := range la.Geometry {
			if la.Geometry[i].Dist(lb.Geometry[i]) > 0.002 {
				t.Fatalf("line %d vertex %d differs by %v", id, i, la.Geometry[i].Dist(lb.Geometry[i]))
			}
		}
	}
	for _, id := range a.LaneletIDs() {
		la, _ := a.Lanelet(id)
		lb, err := b.Lanelet(id)
		if err != nil {
			t.Fatalf("lanelet %d missing", id)
		}
		if la.Left != lb.Left || la.Right != lb.Right || la.Type != lb.Type ||
			math.Abs(la.SpeedLimit-lb.SpeedLimit) > 1e-12 ||
			len(la.Successors) != len(lb.Successors) ||
			la.LeftNeighbor != lb.LeftNeighbor || la.RightNeighbor != lb.RightNeighbor {
			t.Fatalf("lanelet %d differs", id)
		}
	}
	for _, id := range a.RegulatoryIDs() {
		ra, _ := a.Regulatory(id)
		rb, err := b.Regulatory(id)
		if err != nil {
			t.Fatalf("regulatory %d missing", id)
		}
		if ra.Kind != rb.Kind || ra.StopLine != rb.StopLine ||
			len(ra.Devices) != len(rb.Devices) || len(ra.Lanelets) != len(rb.Lanelets) {
			t.Fatalf("regulatory %d differs", id)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := testWorld(t, 121)
	data := EncodeBinary(m)
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	mapsEquivalent(t, m, back)
	// Decoded map is fully functional: validates and routes.
	if issues := back.Validate(); len(issues) != 0 {
		t.Fatalf("decoded map invalid: %v", issues[0])
	}
	if _, err := back.BuildRouteGraph(); err != nil {
		t.Fatal(err)
	}
	// Restored map allocates fresh IDs above the existing ones.
	nid := back.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(0, 0, 0)})
	if _, err := m.Point(nid); !errors.Is(err, core.ErrNotFound) {
		t.Error("restored map reused an existing ID")
	}
}

func TestBinaryDeterministic(t *testing.T) {
	m := testWorld(t, 122)
	a := EncodeBinary(m)
	b := EncodeBinary(m)
	if string(a) != string(b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := testWorld(t, 123)
	data, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	mapsEquivalent(t, m, back)
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeBinary(nil); !errors.Is(err, ErrBadFormat) {
		t.Errorf("nil decode err = %v", err)
	}
	if _, err := DecodeBinary([]byte{0x01, 0x02, 0x03}); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage decode err = %v", err)
	}
	// Truncated valid stream.
	m := testWorld(t, 124)
	data := EncodeBinary(m)
	if _, err := DecodeBinary(data[:len(data)/3]); err == nil {
		t.Error("truncated decode succeeded")
	}
	if _, err := DecodeJSON([]byte("{")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad json err = %v", err)
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	// Property: arbitrary bytes never panic the decoder.
	f := func(data []byte) bool {
		_, _ = DecodeBinary(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// And corrupted valid prefixes don't panic either.
	m := testWorld(t, 125)
	data := EncodeBinary(m)
	rng := rand.New(rand.NewSource(126))
	for i := 0; i < 200; i++ {
		cp := append([]byte(nil), data...)
		cp[rng.Intn(len(cp))] ^= byte(1 << rng.Intn(8))
		_, _ = DecodeBinary(cp)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	m := testWorld(t, 127)
	bin := EncodeBinary(m)
	js, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin)*3 > len(js) {
		t.Errorf("binary %d not ≪ json %d", len(bin), len(js))
	}
}

func TestRawSizeModel(t *testing.T) {
	m := testWorld(t, 128)
	raw := EncodeRawSize(m, RawParams{})
	vec := int64(len(EncodeBinary(m)))
	if raw < 20*vec {
		t.Errorf("raw %d should dwarf vector %d", raw, vec)
	}
	chunk := SampleRawChunk(m, RawParams{}, 100)
	if len(chunk) != 100*16 {
		t.Errorf("chunk = %d bytes", len(chunk))
	}
	if SampleRawChunk(m, RawParams{}, 0) != nil {
		t.Error("zero chunk")
	}
}

func TestTileKeyMorton(t *testing.T) {
	// Morton is monotone in each coordinate locally and distinct.
	a := TileKey{Layer: "x", TX: 0, TY: 0}
	b := TileKey{Layer: "x", TX: 1, TY: 0}
	c := TileKey{Layer: "x", TX: 0, TY: 1}
	if a.Morton() == b.Morton() || a.Morton() == c.Morton() || b.Morton() == c.Morton() {
		t.Error("morton collisions")
	}
	if b.Morton() != 1 || c.Morton() != 2 {
		t.Errorf("morton = %d, %d", b.Morton(), c.Morton())
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore())
}

func TestDirStore(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, store)
}

func testStore(t *testing.T, store TileStore) {
	t.Helper()
	key := TileKey{Layer: "base", TX: 3, TY: -2}
	if _, err := store.Get(key); !errors.Is(err, ErrNoTile) {
		t.Fatalf("missing get err = %v", err)
	}
	if err := store.Put(key, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(key)
	if err != nil || string(got) != "hello" {
		t.Fatalf("get = %q, %v", got, err)
	}
	// Overwrite.
	if err := store.Put(key, []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, _ = store.Get(key)
	if string(got) != "world" {
		t.Fatalf("overwrite = %q", got)
	}
	// Second layer is independent.
	key2 := TileKey{Layer: "crowd", TX: 3, TY: -2}
	if err := store.Put(key2, []byte("layer2")); err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys("base")
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	if keys[0] != key {
		t.Fatalf("keys[0] = %v", keys[0])
	}
	// Delete.
	if err := store.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(key); !errors.Is(err, ErrNoTile) {
		t.Fatal("tile survived delete")
	}
	if err := store.Delete(key); err != nil {
		t.Fatalf("double delete err = %v", err)
	}
	// Other layer untouched.
	if _, err := store.Get(key2); err != nil {
		t.Fatal("other layer lost")
	}
}

func TestTilerSplitLoad(t *testing.T) {
	m := testWorld(t, 129)
	tiler := Tiler{TileSize: 200}
	store := NewMemStore()
	n, err := tiler.SaveMap(store, m, "base")
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("tiles = %d, want multiple for a 300x150 world", n)
	}
	back, err := tiler.LoadMap(store, "base", m.Name)
	if err != nil {
		t.Fatal(err)
	}
	mapsEquivalent(t, m, back)
	// Missing layer.
	if _, err := tiler.LoadMap(store, "nope", "x"); !errors.Is(err, ErrNoTile) {
		t.Errorf("missing layer err = %v", err)
	}
}

func TestLayerDecoupling(t *testing.T) {
	// Kim [31]: updating a crowdsourced feature layer must not rewrite
	// the base layer's tiles.
	m := testWorld(t, 130)
	tiler := Tiler{TileSize: 200}
	store := NewMemStore()
	if _, err := tiler.SaveMap(store, m, "base"); err != nil {
		t.Fatal(err)
	}
	baseKeys, _ := store.Keys("base")
	baseTiles := make(map[TileKey][]byte)
	for _, k := range baseKeys {
		d, _ := store.Get(k)
		baseTiles[k] = d
	}
	// Build and store a separate feature layer.
	feat := core.NewMap("signs-crowd")
	feat.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(10, 10, 2)})
	feat.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(290, 140, 2)})
	if _, err := tiler.SaveMap(store, feat, "crowd-signs"); err != nil {
		t.Fatal(err)
	}
	// Base tiles byte-identical.
	for k, want := range baseTiles {
		got, err := store.Get(k)
		if err != nil || string(got) != string(want) {
			t.Fatalf("base tile %v changed", k)
		}
	}
	// Feature layer loads independently.
	fl, err := tiler.LoadMap(store, "crowd-signs", "signs")
	if err != nil {
		t.Fatal(err)
	}
	if p, _, _, _, _, _ := fl.Counts(); p != 2 {
		t.Errorf("feature layer points = %d", p)
	}
}

func TestTilerSyncDropsVacatedTiles(t *testing.T) {
	// Republishing a layer from a smaller (e.g. rolled-back) map must
	// delete the tiles the new version no longer occupies; otherwise a
	// later LoadMap stitches stale elements back in.
	tiler := Tiler{TileSize: 100}
	store := NewMemStore()

	wide := core.NewMap("world")
	for i := 0; i < 4; i++ {
		wide.AddPoint(core.PointElement{
			Class: core.ClassSign, Pos: geo.V3(float64(i)*150, 10, 2),
			Meta: core.Meta{Confidence: 0.9},
		})
	}
	if _, err := tiler.SaveMap(store, wide, "serve"); err != nil {
		t.Fatal(err)
	}

	narrow := core.NewMap("world")
	narrow.AddPoint(core.PointElement{
		Class: core.ClassSign, Pos: geo.V3(10, 10, 2), Meta: core.Meta{Confidence: 0.9},
	})
	st, err := tiler.SyncMap(store, narrow, "serve")
	if err != nil {
		t.Fatal(err)
	}
	if st != (SyncStats{Saved: 1, Deleted: 3}) {
		t.Errorf("sync = %+v, want 1 saved, 3 deleted", st)
	}
	back, err := tiler.LoadMap(store, "serve", "world")
	if err != nil {
		t.Fatal(err)
	}
	if got := back.NumElements(); got != 1 {
		t.Errorf("reloaded %d elements, want 1 (stale tiles must be gone)", got)
	}
}

// putFailer fails the Put of one tile while armed.
type putFailer struct {
	TileStore
	fail  TileKey
	armed bool
}

func (s *putFailer) Put(key TileKey, data []byte) error {
	if s.armed && key == s.fail {
		return errors.New("injected put failure")
	}
	return s.TileStore.Put(key, data)
}

func TestTilerSyncWritesOnlyChangedTiles(t *testing.T) {
	tiler := Tiler{TileSize: 100}
	store := NewMemStore()
	gone := TileKey{Layer: "serve", TX: 0, TY: 0}
	flaky := &putFailer{TileStore: store, fail: gone}
	pub := NewPublisher(tiler, flaky, "serve")
	// Each publish is of a snapshot: the publisher keeps the map it is
	// given to tell what the next one changed.
	sync := func(m *core.Map, want SyncStats, what string) {
		t.Helper()
		st, err := pub.Sync(m.Clone())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if st != want {
			t.Fatalf("%s: sync = %+v, want %+v", what, st, want)
		}
		// Whatever was skipped, the layer is what one full write of m
		// into an empty store gives.
		fresh := NewMemStore()
		if _, err := tiler.SaveMap(fresh, m, "serve"); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(store.tiles, fresh.tiles) {
			t.Fatalf("%s: layer differs from a full write", what)
		}
	}

	m := core.NewMap("world")
	var ids []core.ID
	for i := 0; i < 4; i++ {
		ids = append(ids, m.AddPoint(core.PointElement{
			Class: core.ClassSign, Pos: geo.V3(float64(i)*150, 10, 2),
			Meta: core.Meta{Confidence: 0.9},
		}))
	}
	sync(m, SyncStats{Saved: 4}, "first publish")
	sync(m, SyncStats{Unchanged: 4}, "nothing changed")

	if err := m.UpdatePoint(ids[1], func(p *core.PointElement) { p.Pos.Y += 5 }); err != nil {
		t.Fatal(err)
	}
	sync(m, SyncStats{Saved: 1, Unchanged: 3}, "one point moved inside its tile")

	// Across a tile boundary: the tile it left goes, the one it entered
	// is new.
	if err := m.UpdatePoint(ids[1], func(p *core.PointElement) { p.Pos.Y += 100 }); err != nil {
		t.Fatal(err)
	}
	sync(m, SyncStats{Saved: 1, Unchanged: 3, Deleted: 1}, "one point moved to another tile")

	// A tile that went missing behind the publisher's back is written
	// again although its checksum is the one remembered.
	if err := store.Delete(gone); err != nil {
		t.Fatal(err)
	}
	sync(m, SyncStats{Saved: 1, Unchanged: 3}, "tile deleted behind the publisher")

	// A failed Put leaves the store's tile unknown: it is forgotten and
	// written again by the next publish, changed or not.
	if err := m.UpdatePoint(ids[0], func(p *core.PointElement) { p.Pos.Y += 5 }); err != nil {
		t.Fatal(err)
	}
	flaky.armed = true
	if _, err := pub.Sync(m.Clone()); err == nil {
		t.Fatal("injected put failure not reported")
	}
	flaky.armed = false
	if _, ok := pub.sums[gone]; ok {
		t.Fatal("tile whose put failed is still remembered")
	}
	sync(m, SyncStats{Saved: 1, Unchanged: 3}, "publish after a failed put")
}

// TestPublisherPutsWhatItsManifestLacks: a tile the publisher holds no
// checksum for is encoded and put although no changed element touches
// it — the split it remembers says what the tile holds, not what the
// store does.
func TestPublisherPutsWhatItsManifestLacks(t *testing.T) {
	store := NewMemStore()
	pub := NewPublisher(Tiler{TileSize: 100}, store, "serve")
	m := core.NewMap("world")
	for i := 0; i < 3; i++ {
		m.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(float64(i)*150, 10, 2)})
	}
	if st, err := pub.Sync(m.Clone()); err != nil || st != (SyncStats{Saved: 3}) {
		t.Fatalf("first publish: %+v, %v", st, err)
	}
	if st, err := pub.Sync(m.Clone()); err != nil || st != (SyncStats{Unchanged: 3}) {
		t.Fatalf("nothing changed: %+v, %v", st, err)
	}
	forgotten := TileKey{Layer: "serve", TX: 1, TY: 0}
	delete(pub.sums, forgotten)
	if err := store.Put(forgotten, []byte("someone else's bytes")); err != nil {
		t.Fatal(err)
	}
	if st, err := pub.Sync(m.Clone()); err != nil || st != (SyncStats{Saved: 1, Unchanged: 2}) {
		t.Fatalf("a tile missing from the manifest: %+v, %v", st, err)
	}
	fresh := NewMemStore()
	if _, err := (Tiler{TileSize: 100}).SaveMap(fresh, m, "serve"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(store.tiles, fresh.tiles) {
		t.Fatal("layer differs from a full write")
	}
}

func BenchmarkEncodeBinary(b *testing.B) {
	m := testWorld(b, 131)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeBinary(m)
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	m := testWorld(b, 132)
	data := EncodeBinary(m)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
