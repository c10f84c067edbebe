package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/storage"
	"hdmaps/internal/worldgen"
)

// TestVersionStoreRemembersOnlyWhatItKept: every version a directory-
// backed store archives is the full encoding of the map committed,
// whether it was spliced from the version before or — first commit,
// after a rollback, after a reopen — encoded from nothing; and a commit
// that fails to persist leaves snapshot, report and remembered encoding
// at the parent's, so that the commit after it splices from the right
// bytes.
func TestVersionStoreRemembersOnlyWhatItKept(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenVersionDir(dir, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	work := baseMap(6, 6)
	edit := func() {
		ids := work.PointIDs()
		for i := 0; i < 3; i++ {
			_ = work.UpdatePoint(ids[rng.Intn(len(ids))], func(p *core.PointElement) {
				p.Pos.X += rng.NormFloat64() * 0.3
				p.Meta.Observy++
			})
		}
		if rng.Intn(2) == 0 {
			work.AddPoint(core.PointElement{Class: core.ClassPole, Pos: geo.V3(rng.Float64()*150, rng.Float64()*150, 2),
				Meta: core.Meta{Confidence: 0.6}})
		}
		if rng.Intn(3) == 0 {
			_ = work.RemovePoint(ids[rng.Intn(len(ids))])
		}
	}
	commit := func(what string, spliced bool) {
		t.Helper()
		if (vs.encoded != nil) != spliced {
			t.Fatalf("%s: store remembers an encoding: %v, want %v", what, vs.encoded != nil, spliced)
		}
		v, err := vs.Commit(work, what)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := storage.EncodeBinary(work)
		onDisk, err := os.ReadFile(vs.versionPath(v.Seq))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vs.CurrentBytes(), want) || !bytes.Equal(onDisk, want) || v.Checksum != storage.Checksum(want) {
			t.Fatalf("%s: version %d is not the full encoding of the map committed", what, v.Seq)
		}
		if !bytes.Equal(storage.EncodeBinary(vs.Frozen()), want) || !bytes.Equal(storage.EncodeBinary(vs.Current()), want) {
			t.Fatalf("%s: the served snapshot is not the map committed", what)
		}
	}

	commit("genesis", false)
	for i := 0; i < 5; i++ {
		edit()
		commit(fmt.Sprint("commit ", i), true)
	}

	// The next version's file cannot be written (its temporary name is
	// taken by a directory): nothing of the attempt is kept.
	frozen, encoded, seq := vs.Frozen(), vs.encoded, vs.CurrentSeq()
	block := vs.versionPath(seq+1) + ".tmp"
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	edit()
	if _, err := vs.Commit(work, "cannot persist"); err == nil {
		t.Fatal("commit over a blocked version file succeeded")
	}
	if vs.Frozen() != frozen || vs.encoded != encoded || vs.CurrentSeq() != seq || len(vs.Versions()) != seq {
		t.Fatal("a commit that did not persist left its snapshot or encoding behind")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	edit()
	commit("after the failed persist", true)

	if _, err := vs.Rollback(2); err != nil {
		t.Fatal(err)
	}
	work = vs.Current()
	edit()
	commit("after a rollback", false)
	edit()
	commit("second after a rollback", true)

	if vs, err = OpenVersionDir(dir, GateConfig{}); err != nil {
		t.Fatal(err)
	}
	edit()
	commit("after a reopen", false)
}

// TestCommitPublishAllocBudget pins what the write path is for: on a
// city of several thousand elements, committing and publishing a batch
// that re-observed a fiftieth of the points allocates at most a hundredth
// of what making the snapshot, the archive encoding and the split of
// the same map from nothing does, and puts only tiles that hold a
// changed point.
func TestCommitPublishAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	g, err := worldgen.GenerateGrid(worldgen.GridParams{Rows: 9, Cols: 9, Lanes: 2, TrafficLights: true},
		rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Map.NumElements(); n < 5000 {
		t.Fatalf("fixture: %d elements, want a city of 5000 or more", n)
	}
	const layer = "serve"
	tiler := storage.Tiler{TileSize: 250}
	store := &countingStore{TileStore: storage.NewMemStore()}
	// The gate's displacement check is quadratic and stands down above
	// 5000 points and lines; on a city this size it is turned off here.
	svc, vs := newServiceOn(t, g.Map, Config{
		Workers: 1, Publish: &PublishConfig{Store: store, Layer: layer, Tiler: tiler},
	}, GateConfig{MaxDisplacement: -1})
	defer svc.Close()

	// A batch nudges the same few points each time: the fuser's kind of
	// write, through the working map, without the pipeline around it.
	ids := g.Map.PointIDs()
	batch := ids[:len(ids)/50]
	if len(batch) == 0 {
		t.Fatalf("fixture: %d points", len(ids))
	}
	dirty := make(map[storage.TileKey]bool)
	for key, sm := range tiler.Split(g.Map, layer) {
		for _, id := range batch {
			if _, err := sm.Point(id); err == nil {
				dirty[key] = true
			}
		}
	}
	tiles := len(tiler.Split(g.Map, layer))
	if len(dirty) >= tiles/2 {
		t.Fatalf("fixture: the batch touches %d of %d tiles", len(dirty), tiles)
	}
	commitAndPublish := func() {
		svc.mu.Lock()
		for _, id := range batch {
			_ = svc.working.UpdatePoint(id, func(p *core.PointElement) { p.Pos.X += 0.01 })
		}
		svc.mu.Unlock()
		if err := svc.Commit("batch"); err != nil {
			t.Fatal(err)
		}
	}
	commitAndPublish() // the first publish writes every tile
	if m := svc.Metrics(); m.Published != 1 || int(store.puts.Load()) != tiles {
		t.Fatalf("first publish: %d published, %d puts of %d tiles", m.Published, store.puts.Load(), tiles)
	}

	const runs = 5
	store.puts.Store(0)
	got := testing.AllocsPerRun(runs, commitAndPublish)
	if puts := int(store.puts.Load()); puts != (runs+1)*len(dirty) {
		t.Errorf("%d commits made %d puts, want the %d tiles the batch touches each time", runs+1, puts, len(dirty))
	}
	if m := svc.Metrics(); m.PublishErrors != 0 || m.CommitsRejected != 0 {
		t.Fatalf("%d publish errors, %d rejected commits", m.PublishErrors, m.CommitsRejected)
	}

	frozen := vs.Frozen()
	full := testing.AllocsPerRun(runs, func() {
		snap := frozen.Clone()
		snap.FreezeIndexes()
		storage.EncodeBinary(snap)
		for _, sm := range tiler.Split(snap, layer) {
			storage.EncodeBinary(sm)
		}
	})
	t.Logf("commit + publish of %d changed points in %d of %d tiles: %.0f allocations; from nothing: %.0f",
		len(batch), len(dirty), tiles, got, full)
	if got > full/100 {
		t.Errorf("commit + publish allocates %.0f times, over a hundredth of the %.0f the full paths cost", got, full)
	}
}
