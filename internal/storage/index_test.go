package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestKeyIndexMatchesModel: whatever order tiles are put, replaced and
// deleted in, and whenever the first listing of a layer happens, Keys is
// the set of tiles Get can read, in Morton order — and a DirStore opened
// afresh over the same directory lists the same.
func TestKeyIndexMatchesModel(t *testing.T) {
	root := t.TempDir()
	dir, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]TileStore{"mem": NewMemStore(), "dir": dir} {
		rng := rand.New(rand.NewSource(11))
		model := map[TileKey]bool{}
		layers := []string{"a", "b", "tomb--a"}
		check := func(step int) {
			t.Helper()
			var wantLayers []string
			for _, layer := range layers {
				var want []TileKey
				for k := range model {
					if k.Layer == layer {
						want = append(want, k)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i].Morton() < want[j].Morton() })
				if len(want) > 0 {
					wantLayers = append(wantLayers, layer)
				}
				for _, s := range []TileStore{store, reopened(t, store, root)} {
					got, err := s.Keys(layer)
					if err != nil || (len(got)+len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s step %d: Keys(%q) = %v, %v; want %v", name, step, layer, got, err, want)
					}
				}
			}
			if got, err := store.ListLayers(); err != nil || (len(got)+len(wantLayers) > 0 && !reflect.DeepEqual(got, wantLayers)) {
				t.Fatalf("%s step %d: ListLayers = %v, %v; want %v", name, step, got, err, wantLayers)
			}
		}
		for step := 0; step < 400; step++ {
			key := TileKey{Layer: layers[rng.Intn(len(layers))], TX: int32(rng.Intn(7) - 3), TY: int32(rng.Intn(5) - 2)}
			switch op := rng.Intn(10); {
			case op < 5:
				if err := store.Put(key, []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
				model[key] = true
			case op < 8:
				if err := store.Delete(key); err != nil {
					t.Fatal(err)
				}
				delete(model, key)
			default:
				check(step)
			}
		}
		for key := range model { // down to nothing
			if err := store.Delete(key); err != nil {
				t.Fatal(err)
			}
			delete(model, key)
		}
		check(400)
	}
}

// reopened is a second store over a DirStore's directory, as a restart
// would open it; a MemStore has no other view and is returned as it is.
func reopened(t *testing.T, store TileStore, root string) TileStore {
	t.Helper()
	if _, ok := store.(*DirStore); !ok {
		return store
	}
	again, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	return again
}

// TestKeyIndexRemembersNoAbsentLayer: a listing names any layer it likes,
// so a layer that has no tile — never had, or lost its last to Delete —
// must leave nothing behind in the index, however many are asked for.
func TestKeyIndexRemembersNoAbsentLayer(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	indexed := func(s TileStore) int {
		switch s := s.(type) {
		case *DirStore:
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.layers)
		case *MemStore:
			s.mu.RLock()
			defer s.mu.RUnlock()
			return len(s.keys)
		}
		panic("unknown store")
	}
	for name, store := range map[string]TileStore{"mem": mem, "dir": dir} {
		srv := NewTileServer(store)
		tr := &handlerTransport{h: srv}
		for i := 0; i < 10_000; i++ {
			layer := fmt.Sprintf("ghost-%d", i)
			if i%2 == 0 { // through the route a client reaches
				if code, body := tr.do("GET", "/v1/tiles/"+layer+"?bbox=0,0,2,2&state=1", nil); code != 200 || string(body) != "[]\n" {
					t.Fatalf("%s: listing %s: %d %q", name, layer, code, body)
				}
			} else if keys, err := store.Keys(layer); err != nil || len(keys) != 0 {
				t.Fatalf("%s: Keys(%s) = %v, %v", name, layer, keys, err)
			}
		}
		if n := indexed(store); n != 0 {
			t.Fatalf("%s: %d layers indexed after listing 10 000 absent ones", name, n)
		}
		key := TileKey{Layer: "brief", TX: 1, TY: 1}
		if err := store.Put(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if keys, _ := store.Keys("brief"); len(keys) != 1 || indexed(store) != 1 {
			t.Fatalf("%s: one tile lists as %v in %d indexed layers", name, keys, indexed(store))
		}
		if err := store.Delete(key); err != nil {
			t.Fatal(err)
		}
		if keys, _ := store.Keys("brief"); len(keys) != 0 || indexed(store) != 0 {
			t.Fatalf("%s: the emptied layer lists %v, %d layers still indexed", name, keys, indexed(store))
		}
		if layers, err := store.ListLayers(); err != nil || len(layers) != 0 {
			t.Fatalf("%s: ListLayers = %v, %v", name, layers, err)
		}
	}
}

// TestDirStoreConcurrentPutsOneKey: writers of one key each write a file
// of their own before renaming it into place, so the tile ends up one
// writer's payload, whole — a shared temporary file let two of them
// interleave — listed once, with no temporary file left behind. Run
// under -race.
func TestDirStoreConcurrentPutsOneKey(t *testing.T) {
	root := t.TempDir()
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	key := TileKey{Layer: "base", TX: 2, TY: -1}
	const writers = 16
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 64<<10+i) // own length, own bytes
	}
	for round := 0; round < 4; round++ {
		if round == 2 { // with the layer listed, and before
			if _, err := store.Keys("base"); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i := range payloads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := store.Put(key, payloads[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		got, err := store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		whole := false
		for _, p := range payloads {
			whole = whole || bytes.Equal(got, p)
		}
		if !whole {
			t.Fatalf("round %d: the tile is %d bytes starting %q: no writer's payload", round, len(got), got[:1])
		}
		if keys, err := store.Keys("base"); err != nil || !reflect.DeepEqual(keys, []TileKey{key}) {
			t.Fatalf("round %d: Keys = %v, %v", round, keys, err)
		}
		ents, err := os.ReadDir(filepath.Join(root, "base"))
		if err != nil || len(ents) != 1 || ents[0].Name() != tileFile(key) {
			t.Fatalf("round %d: the layer directory holds %v, %v", round, ents, err)
		}
	}
}
