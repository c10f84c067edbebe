package storage

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// TestDirStoreKeysListsOnlyTiles: whatever else sits in a layer's
// directory — a torn write's .tmp beside the tile it was replacing, one
// for a tile that never landed, a file under another tile's Morton
// code, names %d would not print — Keys lists the tiles Get can read,
// each once.
func TestDirStoreKeysListsOnlyTiles(t *testing.T) {
	root := t.TempDir()
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	real := []TileKey{{"base", 1, 2}, {"base", -3, 0}, {"base", 0, 0}}
	for i, key := range real {
		m := core.NewMap("t")
		if err := m.RestorePoint(core.PointElement{ID: core.ID(i + 1), Class: core.ClassSign}); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, EncodeBinary(m)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(root, "base")
	for _, name := range []string{
		tileFile(real[0]) + ".tmp",               // a second copy of a key that exists
		tileFile(TileKey{"base", 5, 5}) + ".tmp", // a key Get answers ErrNoTile for
		"0000000000000000_7_9.tile",              // not 7,9's Morton code
		strings.ToUpper(tileFile(TileKey{"base", 3, 3})[:16]) + "_3_3.tile",
		"0000000000000003_+1_1.tile", "0000000000000003_01_1.tile", "0000000000000000_-0_0.tile",
		"0000000000000003_1_1.tile.bak", "3_1_1.tile", "0000000000000003_1.tile", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := store.Keys("base")
	if err != nil {
		t.Fatal(err)
	}
	want := []TileKey{{"base", 0, 0}, {"base", 1, 2}, {"base", -3, 0}} // Morton order
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1].Morton() >= keys[i].Morton() {
			t.Fatalf("Keys not in Morton order: %v", keys)
		}
	}
	if m, err := (Tiler{}).LoadMap(store, "base", "m"); err != nil || m.NumElements() != len(real) {
		t.Fatalf("LoadMap over the real tiles: %v", err)
	}
}

// badLayers are names a layer must not have, as a route carries them.
var badLayers = []struct{ name, inPath string }{
	{"..", ".."}, {"..", "%2e%2e"}, {"..", "%2E."}, {".", "."}, {".", "%2e"},
	{`a\b`, "a%5Cb"}, {`..\up`, "..%5Cup"}, {"a\x00b", "a%00b"},
}

// TestLayerEscapeRefused: no route and no store call takes a layer name
// that is not one plain path element, and nothing is created for one —
// not under the store's root and, above all, not beside it.
func TestLayerEscapeRefused(t *testing.T) {
	outer := t.TempDir()
	root := filepath.Join(outer, "store")
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTileServer(store)
	m := core.NewMap("t")
	m.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(1, 1, 0)})
	body := EncodeBinary(m)

	for _, l := range badLayers {
		for _, route := range []struct{ method, path string }{
			{http.MethodPut, "/v1/tiles/" + l.inPath + "/0/0"},
			{http.MethodGet, "/v1/tiles/" + l.inPath + "/0/0"},
			{http.MethodHead, "/v1/tiles/" + l.inPath + "/0/0"},
			{http.MethodDelete, "/v1/tiles/" + l.inPath + "/0/0"},
			{http.MethodGet, "/v1/tiles/" + l.inPath},
			{http.MethodGet, "/v1/digest/" + l.inPath},
		} {
			req := httptest.NewRequest(route.method, route.path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", route.method, route.path, rec.Code)
			}
		}
		key := TileKey{Layer: l.name}
		if err := store.Put(key, body); !errors.Is(err, ErrBadLayer) {
			t.Errorf("Put layer %q: %v, want ErrBadLayer", l.name, err)
		}
		if _, err := store.Get(key); !errors.Is(err, ErrBadLayer) {
			t.Errorf("Get layer %q: %v, want ErrBadLayer", l.name, err)
		}
		if err := store.Delete(key); !errors.Is(err, ErrBadLayer) {
			t.Errorf("Delete layer %q: %v, want ErrBadLayer", l.name, err)
		}
		if _, err := store.Keys(l.name); !errors.Is(err, ErrBadLayer) {
			t.Errorf("Keys layer %q: %v, want ErrBadLayer", l.name, err)
		}
	}
	if _, err := ParseTileKey("", "0", "0"); !errors.Is(err, ErrBadLayer) {
		t.Errorf("empty layer: %v, want ErrBadLayer", err)
	}
	for dir, want := range map[string][]string{outer: {"store"}, root: nil} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s holds %v after the refused writes, want %v", dir, names, want)
		}
	}

	// The names in use all pass.
	for _, layer := range []string{"base", "serve", "x", "crowd-signs", "tomb--base", "hint--node2--base", "v1.2_rc"} {
		key, err := ParseTileKey(layer, "-4", "7")
		if err != nil || key != (TileKey{layer, -4, 7}) {
			t.Errorf("ParseTileKey(%q, -4, 7) = %v, %v", layer, key, err)
		}
	}
	for _, c := range [][2]string{{"x", "0"}, {"0", ""}, {"2147483648", "0"}, {"0", "1.5"}} {
		if _, err := ParseTileKey("base", c[0], c[1]); err == nil {
			t.Errorf("ParseTileKey(base, %q, %q) accepted", c[0], c[1])
		}
	}
}

// FuzzParseTileKey: a key that parses lives in a file under the store's
// root, under the name Keys reads the same key back from.
func FuzzParseTileKey(f *testing.F) {
	f.Add("base", "0", "0")
	f.Add("..", "1", "-1")
	f.Add("a/../..", "2147483647", "-2147483648")
	f.Add("tomb--base", "+3", "007")
	f.Add("a\\b\x00", "x", "")
	store := &DirStore{root: filepath.Join(os.TempDir(), "fuzz-root")}
	f.Fuzz(func(t *testing.T, layer, tx, ty string) {
		key, err := ParseTileKey(layer, tx, ty)
		if err != nil {
			return
		}
		path, err := store.path(key)
		if err != nil {
			t.Fatalf("%+v parses and has no path: %v", key, err)
		}
		rel, err := filepath.Rel(store.root, path)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) || filepath.IsAbs(rel) {
			t.Fatalf("%+v is kept at %q, outside %q", key, path, store.root)
		}
		if filepath.Dir(filepath.Dir(path)) != store.root {
			t.Fatalf("%+v is kept at %q, not in a layer directory of %q", key, path, store.root)
		}
		if gx, gy, ok := parseTileFile(filepath.Base(path)); !ok || gx != key.TX || gy != key.TY {
			t.Fatalf("%+v is kept as %q, which lists as %d,%d (ok=%v)", key, filepath.Base(path), gx, gy, ok)
		}
	})
}
