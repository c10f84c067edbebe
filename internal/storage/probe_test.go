package storage

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBody: the one bounded body reader sizes its buffer from a
// believable Content-Length, ignores an unbelievable one, and turns an
// over-limit body into ErrBodyTooLarge rather than a truncation.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("tile"), 6000) // 24 000 bytes
	n := int64(len(payload))
	for name, tc := range map[string]struct {
		contentLength, limit int64
		wantErr              error
	}{
		"exact length":       {n, 1 << 20, nil},
		"unknown length":     {-1, 1 << 20, nil},
		"length lies short":  {10, 1 << 20, nil},
		"length over limit":  {1 << 40, 1 << 20, nil},
		"body at the limit":  {n, n, nil},
		"one byte over":      {n, n - 1, ErrBodyTooLarge},
		"over, length lying": {5, n - 1, ErrBodyTooLarge},
	} {
		got, err := ReadBody(bytes.NewReader(payload), tc.contentLength, tc.limit)
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.wantErr)
		}
		if tc.wantErr == nil && !bytes.Equal(got, payload) {
			t.Errorf("%s: read %d bytes, want %d", name, len(got), len(payload))
		}
	}
	if _, err := ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), 5, 10); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("read failure came back as %v", err)
	}
	// Sized once: a body with a true Content-Length costs one buffer, not
	// the doubling ladder io.ReadAll climbs from 512 bytes.
	rd := bytes.NewReader(payload)
	sized := testing.AllocsPerRun(20, func() {
		rd.Reset(payload)
		if _, err := ReadBody(rd, n, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	ladder := testing.AllocsPerRun(20, func() {
		rd.Reset(payload)
		if _, err := io.ReadAll(io.LimitReader(rd, 1<<20)); err != nil {
			t.Fatal(err)
		}
	})
	if sized > 3 || sized > ladder/3 {
		t.Errorf("pre-sized read of %d bytes took %.0f allocations, io.ReadAll %.0f", n, sized, ladder)
	}
}

// probe issues a HEAD and returns the response; the body must be empty.
func probe(t *testing.T, url string) *http.Response {
	t.Helper()
	resp := doTile(t, http.MethodHead, url, "", nil)
	if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
		t.Fatalf("HEAD %s carried a %d-byte body", url, len(body))
	}
	return resp
}

// TestServerProbe: HEAD on a tile path reports the replica's state —
// the same (clock, crc) pair conditional writes match on — and never a
// body: live, tombstoned, absent, and a tile the server did not write.
func TestServerProbe(t *testing.T) {
	_, store, srv := stateServer(t)
	url := srv.URL + "/v1/tiles/base/1/2"

	resp := probe(t, url)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(StateHeader) != "absent" {
		t.Fatalf("absent: %d %q", resp.StatusCode, resp.Header.Get(StateHeader))
	}

	tile := stateTile(t, 5)
	if resp := doTile(t, http.MethodPut, url, "", tile); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	live := ReplicaState{Found: true, Clock: 5, Sum: Checksum(tile)}
	resp = probe(t, url)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(StateHeader) != live.String() ||
		resp.Header.Get(ChecksumHeader) != live.Sum {
		t.Fatalf("live: %d state %q sum %q, want %q", resp.StatusCode,
			resp.Header.Get(StateHeader), resp.Header.Get(ChecksumHeader), live)
	}
	// The probed state is exactly what a conditional write must name.
	if resp := doTile(t, http.MethodPut, url, resp.Header.Get(StateHeader), stateTile(t, 6)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("conditional put on the probed state: %d", resp.StatusCode)
	}

	marker := EncodeTombstone(Tombstone{Layer: "base", TX: 1, TY: 2, Clock: 9, Created: 1, TTLSeconds: 60})
	if resp := doTile(t, http.MethodPut, url, "", marker); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tombstone put: %d", resp.StatusCode)
	}
	resp = probe(t, url)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(StateHeader) != "tomb:9" ||
		resp.Header.Get(TombstoneHeader) != "9" || resp.Header.Get(ChecksumHeader) != Checksum(marker) {
		t.Fatalf("tombstone: %d state %q tomb %q sum %q", resp.StatusCode, resp.Header.Get(StateHeader),
			resp.Header.Get(TombstoneHeader), resp.Header.Get(ChecksumHeader))
	}

	// Loaded behind the server's back: no write-time state is cached, so
	// the probe reads the store once and then remembers.
	oob := stateTile(t, 3)
	key := TileKey{Layer: "base", TX: 7, TY: 7}
	if err := store.Put(key, oob); err != nil {
		t.Fatal(err)
	}
	want := ReplicaState{Found: true, Clock: 3, Sum: Checksum(oob)}.String()
	for i := 0; i < 2; i++ {
		if resp := probe(t, srv.URL+"/v1/tiles/base/7/7"); resp.StatusCode != http.StatusOK || resp.Header.Get(StateHeader) != want {
			t.Fatalf("out-of-band tile, probe %d: %d %q, want %q", i, resp.StatusCode, resp.Header.Get(StateHeader), want)
		}
	}
}

// TestServerListWindow: ?bbox keeps the keys inside the inclusive
// window, leaves the whole-layer listing byte for byte what it was, and
// refuses a malformed window by name.
func TestServerListWindow(t *testing.T) {
	_, store, srv := stateServer(t)
	tile := stateTile(t, 1)
	for tx := int32(-1); tx <= 3; tx++ {
		for ty := int32(0); ty <= 2; ty++ {
			if err := store.Put(TileKey{Layer: "base", TX: tx, TY: ty}, tile); err != nil {
				t.Fatal(err)
			}
		}
	}
	type entry struct {
		TX int32 `json:"tx"`
		TY int32 `json:"ty"`
	}
	var all, win []entry
	getJSON(t, srv.URL+"/v1/tiles/base", &all)
	if len(all) != 15 {
		t.Fatalf("whole layer lists %d keys, want 15", len(all))
	}
	getJSON(t, srv.URL+"/v1/tiles/base?bbox=-1,1,0,2", &win)
	var want []entry
	for _, e := range all { // the window is the listing filtered, order kept
		if e.TX >= -1 && e.TX <= 0 && e.TY >= 1 && e.TY <= 2 {
			want = append(want, e)
		}
	}
	if len(win) != 4 || len(want) != 4 {
		t.Fatalf("window lists %d keys (reference %d), want 4", len(win), len(want))
	}
	for i := range win {
		if win[i] != want[i] {
			t.Fatalf("window[%d] = %+v, want %+v", i, win[i], want[i])
		}
	}
	var none []entry
	getJSON(t, srv.URL+"/v1/tiles/base?bbox=50,50,60,60", &none)
	if none == nil || len(none) != 0 {
		t.Fatalf("empty window lists %v, want []", none)
	}
	for _, bad := range []string{"1,2,3", "1,2,3,4,5", "a,0,1,1", "0,0,1,99999999999", "0,0,,1"} {
		resp, err := http.Get(srv.URL + "/v1/tiles/base?bbox=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad bbox") {
			t.Errorf("bbox=%s: %d %s", bad, resp.StatusCode, body)
		}
	}
}

// TestFetchRegionSendsWindow: the region pull asks the server for its
// window only, and a server that ignores bbox (an older build) still
// yields the same region with the same health report.
func TestFetchRegionSendsWindow(t *testing.T) {
	f := newRegionFixture(t)
	k := f.keys[0]
	var queries []string
	ts := NewTileServer(f.store)
	strip := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kind := strings.Count(r.URL.Path, "/"); kind == 3 { // /v1/tiles/{layer}
			queries = append(queries, r.URL.RawQuery)
			if strip {
				r.URL.RawQuery = ""
			}
		}
		ts.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := f.client(nil)
	c.Base = srv.URL

	pull := func() ([]byte, *RegionHealth) {
		t.Helper()
		m, h, err := c.FetchRegion(context.Background(), "base", k.TX, k.TY, k.TX+1, k.TY+1, "region")
		if err != nil {
			t.Fatal(err)
		}
		return EncodeBinary(m), h
	}
	windowed, hw := pull()
	strip = true
	whole, hs := pull()
	want := "bbox=" + TileWindow{TX0: k.TX, TY0: k.TY, TX1: k.TX + 1, TY1: k.TY + 1}.String()
	if len(queries) != 2 || queries[0] != want || queries[1] != want {
		t.Fatalf("listing queries %q, want %q twice", queries, want)
	}
	if !bytes.Equal(windowed, whole) {
		t.Fatal("a server that ignores bbox yields a different region")
	}
	if hw.Requested == 0 || hw.Requested == len(f.keys) || hw.Degraded ||
		hw.Requested != hs.Requested || hw.Fresh != hs.Fresh || hs.Degraded {
		t.Fatalf("health windowed %+v vs whole-layer %+v (layer has %d tiles)", hw, hs, len(f.keys))
	}
}

// TestReplicaStateCompare: states order like FresherState up to the
// bytes, and say so when only the bytes can decide.
func TestReplicaStateCompare(t *testing.T) {
	absent := ReplicaState{}
	live := func(clock uint64, sum string) ReplicaState { return ReplicaState{Found: true, Clock: clock, Sum: sum} }
	tomb := func(clock uint64, sum string) ReplicaState { return ReplicaState{Tomb: true, Clock: clock, Sum: sum} }
	for name, tc := range map[string]struct {
		a, b    ReplicaState
		c       int
		ordered bool
	}{
		"absent vs absent":         {absent, absent, 0, true},
		"live beats absent":        {live(0, "aa"), absent, 1, true},
		"tomb beats absent":        {tomb(0, "aa"), absent, 1, true},
		"clock decides":            {live(6, "aa"), live(5, "bb"), 1, true},
		"clock beats kind":         {live(6, "aa"), tomb(5, "bb"), 1, true},
		"tomb beats live on a tie": {tomb(5, "aa"), live(5, "bb"), 1, true},
		"identical live":           {live(5, "aa"), live(5, "aa"), 0, true},
		"identical tomb":           {tomb(5, "aa"), tomb(5, "aa"), 0, true},
		"same clock, other bytes":  {live(5, "aa"), live(5, "bb"), 0, false},
		"two same-clock markers":   {tomb(5, "aa"), tomb(5, "bb"), 0, false},
	} {
		if c, ordered := tc.a.Compare(tc.b); c != tc.c || ordered != tc.ordered {
			t.Errorf("%s: (%d, %v), want (%d, %v)", name, c, ordered, tc.c, tc.ordered)
		}
		if c, ordered := tc.b.Compare(tc.a); c != -tc.c || ordered != tc.ordered {
			t.Errorf("%s reversed: (%d, %v), want (%d, %v)", name, c, ordered, -tc.c, tc.ordered)
		}
	}
}
