package hdbench

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"hdmaps/internal/storage"
)

// The byte counters must agree with the bodies a caller actually sends
// and receives, on each of the three routes the workloads use.
func TestWireCountsBodyBytes(t *testing.T) {
	world, err := urbanWorld(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixture(world)
	key := fx.Keys[len(fx.Keys)/2]
	tile := fx.Bytes[key]

	w := newWire()
	w.hosts["tiles"] = storage.NewTileServer(storage.NewMemStore())
	hc := &http.Client{Transport: w}
	url := "http://tiles/v1/tiles/" + tileName(key)

	do := func(method, url string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %s: %s", method, url, resp.Status, got)
		}
		if resp.ContentLength != int64(len(got)) {
			t.Errorf("%s %s: ContentLength %d, body %d bytes", method, url, resp.ContentLength, len(got))
		}
		return got
	}

	do(http.MethodPut, url, tile)
	if got := w.tileBytes.Load(); got != int64(len(tile)) {
		t.Errorf("after PUT: tileBytes = %d, want the %d-byte request body", got, len(tile))
	}
	got := do(http.MethodGet, url, nil)
	if !bytes.Equal(got, tile) {
		t.Fatal("GET returned different bytes than were PUT")
	}
	if got := w.tileBytes.Load(); got != int64(2*len(tile)) {
		t.Errorf("after GET: tileBytes = %d, want %d", got, 2*len(tile))
	}
	list := do(http.MethodGet, "http://tiles/v1/tiles/"+layerName, nil)
	if got := w.listBytes.Load(); got != int64(len(list)) || got == 0 {
		t.Errorf("after list: listBytes = %d, want the %d-byte JSON body", got, len(list))
	}
	if w.requests.Load() != 3 || w.tileRequests.Load() != 2 {
		t.Errorf("requests, tileRequests = %d, %d, want 3, 2", w.requests.Load(), w.tileRequests.Load())
	}
	if _, err := hc.Get("http://nowhere/v1/layers"); err == nil {
		t.Error("request to an unregistered host succeeded")
	}
}

func TestRoute(t *testing.T) {
	for _, tc := range []struct{ path, kind, key string }{
		{"/v1/tiles/base/3/-4", "tile", "base/3/-4"},
		{"/v1/tiles/base", "list", "base"},
		{"/v1/layers", "", ""},
		{"/healthz", "", ""},
		{"/v1/tiles/base/3", "", ""},
	} {
		if kind, key := route(tc.path); kind != tc.kind || key != tc.key {
			t.Errorf("route(%q) = %q, %q, want %q, %q", tc.path, kind, key, tc.kind, tc.key)
		}
	}
}
