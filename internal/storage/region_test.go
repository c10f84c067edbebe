package storage

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/obs"
)

// regionFixture serves the tiles of a small world from a MemStore.
type regionFixture struct {
	store *MemStore
	keys  []TileKey
	srv   *httptest.Server
	// fail, when set, decides per request whether the server answers 500.
	fail func(r *http.Request) bool
}

func newRegionFixture(t *testing.T) *regionFixture {
	t.Helper()
	f := &regionFixture{store: NewMemStore()}
	if _, err := (Tiler{TileSize: 200}).SaveMap(f.store, testWorld(t, 790), "base"); err != nil {
		t.Fatal(err)
	}
	f.keys, _ = f.store.Keys("base")
	if len(f.keys) < 4 {
		t.Fatalf("fixture has only %d tiles", len(f.keys))
	}
	ts := NewTileServer(f.store)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.fail != nil && f.fail(r) {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		ts.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *regionFixture) client(cache *TileCache) *Client {
	return &Client{Base: f.srv.URL, Cache: cache, Retry: RetryPolicy{MaxAttempts: 1}, Metrics: obs.NewRegistry()}
}

// loadMapOver is the reference stitch: Tiler.LoadMap over a store
// holding just the given tiles.
func (f *regionFixture) loadMapOver(t *testing.T, keys []TileKey, name string) *core.Map {
	t.Helper()
	sub := NewMemStore()
	for _, k := range keys {
		data, err := f.store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		_ = sub.Put(k, data)
	}
	m, err := Tiler{}.LoadMap(sub, "base", name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameEncoding(t *testing.T, what string, got, want *core.Map) {
	t.Helper()
	if !bytes.Equal(EncodeBinary(got), EncodeBinary(want)) {
		t.Fatalf("%s: FetchRegion and LoadMap stitched different maps (%d vs %d elements)",
			what, got.NumElements(), want.NumElements())
	}
}

// TestFetchRegionMatchesLoadMap: the vehicle's region pull and the
// store-side LoadMap share one stitch, so over the same tiles they
// produce maps that encode byte-identically — fresh, served stale from
// the cache, and with a tile missing — and both refuse an element that
// two tiles hold.
func TestFetchRegionMatchesLoadMap(t *testing.T) {
	ctx := context.Background()
	f := newRegionFixture(t)
	cache := NewTileCache(64)
	c := f.client(cache)

	fresh, health, err := c.FetchRegion(ctx, "base", -100, -100, 100, 100, "region")
	if err != nil || health.Degraded || health.Fresh != len(f.keys) {
		t.Fatalf("fresh pull: %v %+v", err, health)
	}
	sameEncoding(t, "fresh", fresh, f.loadMapOver(t, f.keys, "region"))

	// One tile the server cannot serve and no cache holds.
	lost := f.keys[1]
	f.fail = func(r *http.Request) bool { return r.URL.Path == c.tilePath(lost) }
	partial, health, err := f.client(nil).FetchRegion(ctx, "base", -100, -100, 100, 100, "region")
	if err != nil || !health.Degraded || len(health.Missing) != 1 || health.Missing[0] != lost {
		t.Fatalf("pull with one tile failing: %v %+v", err, health)
	}
	var rest []TileKey
	for _, k := range f.keys {
		if k != lost {
			rest = append(rest, k)
		}
	}
	sameEncoding(t, "one tile missing", partial, f.loadMapOver(t, rest, "region"))

	// Server down: listing and every tile come from the cache.
	f.fail = func(*http.Request) bool { return true }
	stale, health, err := c.FetchRegion(ctx, "base", -100, -100, 100, 100, "region")
	if err != nil || !health.Degraded || health.Stale != len(f.keys) || len(health.Missing) != 0 {
		t.Fatalf("stale pull: %v %+v", err, health)
	}
	sameEncoding(t, "stale", stale, f.loadMapOver(t, f.keys, "region"))

	// The same tile under a second key: every element is duplicated.
	f.fail = nil
	dup, _ := f.store.Get(f.keys[0])
	_ = f.store.Put(TileKey{Layer: "base", TX: 90, TY: 90}, dup)
	if _, _, err := c.FetchRegion(ctx, "base", -100, -100, 100, 100, "region"); !errors.Is(err, core.ErrIDTaken) {
		t.Fatalf("FetchRegion over a duplicated element: %v", err)
	}
	if _, err := (Tiler{}).LoadMap(f.store, "base", "region"); !errors.Is(err, core.ErrIDTaken) {
		t.Fatalf("LoadMap over a duplicated element: %v", err)
	}
}

// TestFetchRegionStaleTileUndecodable: with the server down, a cached
// payload that no longer decodes costs the region that tile — reported
// Missing, Degraded, one error — and the rest is still returned.
func TestFetchRegionStaleTileUndecodable(t *testing.T) {
	ctx := context.Background()
	f := newRegionFixture(t)
	cache := NewTileCache(64)
	c := f.client(cache)
	if _, _, err := c.FetchRegion(ctx, "base", -100, -100, 100, 100, "region"); err != nil {
		t.Fatal(err)
	}
	poisoned := f.keys[2]
	good, _, _ := cache.Get(poisoned)
	cache.Put(poisoned, good[:len(good)/2])
	f.srv.Close()

	m, health, err := c.FetchRegion(ctx, "base", -100, -100, 100, 100, "region")
	if err != nil {
		t.Fatalf("one undecodable cache entry failed the region: %v", err)
	}
	if !health.Degraded || health.Stale != len(f.keys)-1 || len(health.Missing) != 1 || health.Missing[0] != poisoned {
		t.Fatalf("health = %+v", health)
	}
	var reported bool
	for _, e := range health.Errors {
		reported = reported || errors.Is(e, ErrBadFormat)
	}
	if !reported || len(health.Errors) > 8 {
		t.Fatalf("errors = %v", health.Errors)
	}
	var rest []TileKey
	for _, k := range f.keys {
		if k != poisoned {
			rest = append(rest, k)
		}
	}
	sameEncoding(t, "poisoned cache entry", m, f.loadMapOver(t, rest, "region"))
}

// TestClientBoundsBodyReads: a server that never stops sending cannot
// grow the vehicle's memory past the tile ceiling; the over-limit body
// is an integrity failure and is not retried.
func TestClientBoundsBodyReads(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 64<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	for name, call := range map[string]func(*Client) error{
		"tile": func(c *Client) error {
			_, err := c.GetTile(context.Background(), TileKey{Layer: "base"})
			return err
		},
		"json": func(c *Client) error {
			_, err := c.Layers(context.Background())
			return err
		},
	} {
		reg := obs.NewRegistry()
		c := &Client{Base: srv.URL, Metrics: reg}
		if err := call(c); !errors.Is(err, ErrBodyTooLarge) {
			t.Fatalf("%s: endless body: %v", name, err)
		}
		if n := reg.Counter("storage.client.attempts").Value(); n != 1 {
			t.Errorf("%s: %d attempts, an over-limit body must not be retried", name, n)
		}
		if n := reg.Counter("storage.client.integrity_failures").Value(); n != 1 {
			t.Errorf("%s: %d integrity failures counted", name, n)
		}
	}
}

// TestChecksumMatches: the numeric comparison accepts what Checksum
// formats and treats anything unparseable as a mismatch.
func TestChecksumMatches(t *testing.T) {
	data := []byte("tile payload")
	if !ChecksumMatches(Checksum(data), data) {
		t.Fatal("own checksum does not match")
	}
	for _, h := range []string{"", "zzzzzzzz", "0x12345678", "123456789", "-1", Checksum([]byte("other"))} {
		if ChecksumMatches(h, data) {
			t.Errorf("header %q matches", h)
		}
	}
}
