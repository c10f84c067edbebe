package ingest

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/incremental"
	"hdmaps/internal/worldgen"
)

// countingStore counts the tiles put through it, and fails one put
// when told to.
type countingStore struct {
	storage.TileStore
	puts     atomic.Int64
	failNext atomic.Bool
}

func (s *countingStore) Put(key storage.TileKey, data []byte) error {
	if s.failNext.Swap(false) {
		return errors.New("injected put failure")
	}
	s.puts.Add(1)
	return s.TileStore.Put(key, data)
}

// layerBytes reads a whole layer back, key by key.
func layerBytes(t *testing.T, store storage.TileStore, layer string) map[storage.TileKey]string {
	t.Helper()
	keys, err := store.Keys(layer)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[storage.TileKey]string, len(keys))
	for _, key := range keys {
		data, err := store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(data)
	}
	return out
}

// TestChangedTilesPublishMatchesFullPublish: through seeded commits, a
// point migrating across a tile boundary, a failed put, a tile deleted
// behind the publisher and a rollback, the layer the service keeps up
// by writing changed tiles only is, key for key and byte for byte, the
// layer one full write of the current version gives an empty store —
// and the report the gate keeps for the next commit is the full
// pass's, and the version it archives the full encoding.
func TestChangedTilesPublishMatchesFullPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: 2, Cols: 2, Lanes: 2, TrafficLights: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	type sign struct {
		p     geo.Vec2
		class core.Class
	}
	var signs []sign
	edge := sign{}
	for _, id := range g.Map.PointIDs() {
		p, _ := g.Map.Point(id)
		signs = append(signs, sign{p.Pos.XY(), p.Class})
		if p.Pos.X > edge.p.X {
			edge = signs[len(signs)-1]
		}
	}
	// The easternmost point sits 5 cm inside the east edge of tile
	// column 2; an observation half a metre further east carries it
	// into column 3, a tile of its own.
	tiler := storage.Tiler{TileSize: (edge.p.X + 0.05) / 3}

	const layer, every = "serve", 4
	store := &countingStore{TileStore: storage.NewMemStore()}
	svc, vs := newServiceOn(t, g.Map, Config{
		Workers: 1, CommitEvery: every,
		Publish: &PublishConfig{Store: store, Layer: layer, Tiler: tiler},
	}, GateConfig{})
	defer svc.Close()

	var seq, stamp uint64 = 0, g.Map.Clock
	published, failed := uint64(0), uint64(0)
	check := func(what string) {
		t.Helper()
		published++
		waitFor(t, func() bool { return svc.Metrics().Published == published })
		if m := svc.Metrics(); m.PublishErrors != failed || m.CommitsRejected != 0 {
			t.Fatalf("%s: %d publish errors, %d rejected commits", what, m.PublishErrors, m.CommitsRejected)
		}
		if !bytes.Equal(vs.CurrentBytes(), storage.EncodeBinary(vs.Frozen())) {
			t.Fatalf("%s: the archived version is not the full encoding of the served one", what)
		}
		fresh := storage.NewMemStore()
		if _, err := tiler.SyncMap(fresh, vs.Frozen(), layer); err != nil {
			t.Fatal(err)
		}
		if got, want := layerBytes(t, store, layer), layerBytes(t, fresh, layer); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: published layer (%d tiles) differs from a full publish (%d tiles)", what, len(got), len(want))
		}
	}
	// batch submits one commit's worth of reports, each re-observing
	// the points around one of them; at sends one of its observations.
	batch := func(shift geo.Vec2, at *sign) {
		for i := 0; i < every; i++ {
			seq++
			stamp++
			r := Report{Source: "veh", Seq: seq, Stamp: stamp}
			centre := signs[rng.Intn(len(signs))]
			if at != nil {
				centre = *at
			}
			for _, s := range signs {
				if s.p.Dist(centre.p) > 40 {
					continue
				}
				r.Observations = append(r.Observations, incremental.Observation{
					Class: s.class, PosVar: 0.1, Stamp: stamp,
					P: s.p.Add(shift).Add(geo.V2(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)),
				})
			}
			if err := svc.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	verified := func() *mapverify.Report {
		vs.mu.RLock()
		defer vs.mu.RUnlock()
		return vs.verified
	}

	tilesBefore := len(layerBytes(t, store, layer))
	if tilesBefore != 0 {
		t.Fatalf("fixture: layer holds %d tiles before the first publish", tilesBefore)
	}
	for i := 0; i < 5; i++ {
		batch(geo.Vec2{}, nil)
		check("commit")
		if got, want := verified(), mapverify.Verify(vs.Frozen(), vs.gate.Verify); !reflect.DeepEqual(got, want) {
			t.Fatalf("commit %d: the gate kept a report that is not the full pass's:\n%+v\n%+v", i, got, want)
		}
	}
	tiles := len(layerBytes(t, store, layer))
	if puts := int(store.puts.Load()); puts >= 5*tiles || puts < tiles {
		t.Fatalf("5 publishes of a %d-tile layer made %d puts: want the first in full and the rest in part", tiles, puts)
	}

	batch(geo.V2(0.6, 0), &edge)
	check("migration")
	if moved := len(layerBytes(t, store, layer)); moved != tiles+1 {
		t.Fatalf("fixture: the edge point did not move into a tile of its own (%d tiles, then %d)", tiles, moved)
	}

	// A put fails: the publish is abandoned, and the next one leaves the
	// layer right whatever the failed one got to write.
	store.failNext.Store(true)
	batch(geo.Vec2{}, nil)
	failed++
	waitFor(t, func() bool { return svc.Metrics().PublishErrors == failed })
	batch(geo.Vec2{}, nil)
	check("commit after a failed put")

	// A tile no report comes near — it holds no point — goes missing: no
	// changed element touches it, and it is put again all the same.
	var quiet storage.TileKey
	for key, data := range layerBytes(t, store, layer) {
		if m, err := storage.DecodeBinary([]byte(data)); err == nil && len(m.PointIDs()) == 0 {
			quiet = key
		}
	}
	if quiet.Layer == "" {
		t.Fatal("fixture: every tile holds a point")
	}
	if err := store.Delete(quiet); err != nil {
		t.Fatal(err)
	}
	batch(geo.Vec2{}, nil)
	check("commit after a tile went missing")

	if _, err := svc.Rollback(4); err != nil {
		t.Fatal(err)
	}
	check("rollback")
	if back := len(layerBytes(t, store, layer)); back != tiles {
		t.Fatalf("rollback left %d tiles, want %d", back, tiles)
	}
	if verified() != nil {
		t.Fatal("the gate kept a report across a rollback")
	}

	for i := 0; i < 3; i++ {
		batch(geo.Vec2{}, nil)
		check("commit after rollback")
	}
	if got, want := verified(), mapverify.Verify(vs.Frozen(), vs.gate.Verify); !reflect.DeepEqual(got, want) {
		t.Fatalf("after rollback: the gate kept a report that is not the full pass's")
	}
}

// TestFrozenIDAccessorsRaceFree: pool workers and publishers read the
// frozen snapshot's ID lists while commits replace it; under -race,
// any write an accessor made to the shared map would show here.
func TestFrozenIDAccessorsRaceFree(t *testing.T) {
	base := baseMap(6, 6)
	svc, vs := newServiceOn(t, base, Config{Workers: 2, CommitEvery: 2}, GateConfig{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := vs.Frozen()
				n := len(m.PointIDs()) + len(m.LineIDs()) + len(m.AreaIDs()) +
					len(m.LaneletIDs()) + len(m.BundleIDs()) + len(m.RegulatoryIDs())
				if n != m.NumElements() {
					t.Errorf("accessors list %d IDs, map holds %d elements", n, m.NumElements())
					return
				}
			}
		}()
	}
	for i := uint64(1); i <= 40; i++ {
		if err := svc.Submit(Report{Source: "v1", Seq: i, Stamp: 40 + i,
			Observations: []incremental.Observation{obsNear(float64(i%6)*30, 0, 40+i)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return svc.Metrics().Commits >= 15 })
	close(stop)
	wg.Wait()
	svc.Close()
}
