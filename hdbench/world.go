package hdbench

import (
	"fmt"
	"math/rand"
	"sort"

	"hdmaps/internal/core"
	"hdmaps/internal/storage"
	"hdmaps/internal/worldgen"
)

// layerName is the tile layer every workload serves and publishes.
const layerName = "base"

// Fixture is a generated world and its tiles: what every set-up loads
// into a fresh stack and what every output check compares against.
type Fixture struct {
	World *core.Map
	// Keys lists the tiles in Morton order, the order a listing returns.
	Keys  []storage.TileKey
	Tiles map[storage.TileKey]*core.Map
	Bytes map[storage.TileKey][]byte
}

func newFixture(m *core.Map) *Fixture {
	f := &Fixture{
		World: m,
		Tiles: storage.Tiler{}.Split(m, layerName),
		Bytes: make(map[storage.TileKey][]byte),
	}
	for k, sm := range f.Tiles {
		f.Keys = append(f.Keys, k)
		f.Bytes[k] = storage.EncodeBinary(sm)
	}
	sort.Slice(f.Keys, func(i, j int) bool { return f.Keys[i].Morton() < f.Keys[j].Morton() })
	return f
}

// urbanWorld is a rows×rows Manhattan grid with two lanes per direction
// and signalised intersections.
func urbanWorld(rows int, seed int64) (*core.Map, error) {
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: rows, Cols: rows, Lanes: 2, TrafficLights: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("hdbench: urban world: %w", err)
	}
	return g.Map, nil
}

// highwayWorld is a three-lane corridor meandering across two tile
// rows. The 25 m sampling step keeps generation (quadratic in the
// number of centreline samples) well under a second.
func highwayWorld(lengthM float64, seed int64) (*core.Map, error) {
	h, err := worldgen.GenerateHighway(worldgen.HighwayParams{
		LengthM: lengthM, Lanes: 3, CurveAmp: 300, CurvePeriod: 20000,
		SignSpacing: 500, Step: 25,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("hdbench: highway world: %w", err)
	}
	return h.Map, nil
}

// window is a rectangle of tile coordinates with what a correct
// FetchRegion of it must return, counted from the fixture.
type window struct {
	tx0, ty0, tx1, ty1      int32
	tiles, lanelets, points int
}

func (f *Fixture) window(tx0, ty0, tx1, ty1 int32) window {
	w := window{tx0: tx0, ty0: ty0, tx1: tx1, ty1: ty1}
	for _, k := range f.Keys {
		if k.TX < tx0 || k.TX > tx1 || k.TY < ty0 || k.TY > ty1 {
			continue
		}
		points, _, _, lanelets, _, _ := f.Tiles[k].Counts()
		w.tiles++
		w.lanelets += lanelets
		w.points += points
	}
	return w
}

// check reports whether a fetched region is the one the fixture holds.
func (w window) check(m *core.Map, h *storage.RegionHealth, err error) bool {
	if err != nil || m == nil || h == nil || h.Degraded || h.Requested != w.tiles {
		return false
	}
	points, _, _, lanelets, _, _ := m.Counts()
	return points == w.points && lanelets == w.lanelets
}
