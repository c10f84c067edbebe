package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedHandler is an inner handler whose requests block until released,
// counting every execution.
type gatedHandler struct {
	calls   atomic.Int64
	entered chan struct{} // receives one value per request that starts
	release chan struct{} // each request waits for one value (nil = no gate)
	status  int
	body    string
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.calls.Add(1)
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	if g.release != nil {
		<-g.release
	}
	status := g.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	_, _ = w.Write([]byte(g.body))
}

// checkInvariant asserts the accounting identity on a quiescent handler.
func checkInvariant(t *testing.T, h *Handler) {
	t.Helper()
	s := h.Stats()
	if s.Inflight != 0 {
		t.Fatalf("checkInvariant on a busy handler: %d in flight", s.Inflight)
	}
	if s.Submitted != s.Accepted+s.Shed+s.Errored {
		t.Errorf("accounting broken: submitted %d != accepted %d + shed %d + errored %d",
			s.Submitted, s.Accepted, s.Shed, s.Errored)
	}
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = "192.0.2.1:1234"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandlerMetaEndpoints(t *testing.T) {
	h := NewHandler(&gatedHandler{body: "tile"}, Config{})
	if w := get(t, h, "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}
	if w := get(t, h, "/readyz", nil); w.Code != http.StatusOK {
		t.Errorf("readyz = %d", w.Code)
	}
	h.StartDrain()
	if w := get(t, h, "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	w := get(t, h, "/statz", nil)
	var snap StatsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("statz not JSON: %v", err)
	}
	if !snap.Draining {
		t.Error("statz does not report draining")
	}
	// Meta endpoints are outside the accounting.
	if snap.Submitted != 0 {
		t.Errorf("meta endpoints counted as submitted: %d", snap.Submitted)
	}
}

func TestHandlerCacheReadThrough(t *testing.T) {
	inner := &gatedHandler{body: "tile-bytes"}
	h := NewHandler(inner, Config{})
	path := "/v1/tiles/base/1/2"

	for i := 0; i < 5; i++ {
		w := get(t, h, path, nil)
		if w.Code != http.StatusOK || w.Body.String() != "tile-bytes" {
			t.Fatalf("GET %d: %d %q", i, w.Code, w.Body.String())
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("inner calls = %d, want 1 (cache read-through)", got)
	}

	// PUT invalidates exactly that tile.
	req := httptest.NewRequest(http.MethodPut, path, strings.NewReader("new"))
	req.RemoteAddr = "192.0.2.1:1234"
	h.ServeHTTP(httptest.NewRecorder(), req)
	get(t, h, path, nil)
	if got := inner.calls.Load(); got != 3 { // 1 GET + 1 PUT + 1 refill GET
		t.Fatalf("inner calls after PUT = %d, want 3", got)
	}

	s := h.Stats()
	if s.CacheHits != 4 || s.CacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 4/2", s.CacheHits, s.CacheMisses)
	}
	checkInvariant(t, h)
}

// TestHandlerProbesNotCached: a HEAD on a tile path is a cluster
// router's replica probe. It must reach the tile server every time — a
// cached or coalesced answer could report a state the replica has left —
// and must neither be served from nor fill the tile's GET cache entry.
func TestHandlerProbesNotCached(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Tile-State", "live:7:0badcafe")
		if r.Method == http.MethodGet {
			_, _ = w.Write([]byte("tile-bytes"))
		}
	})
	var calls atomic.Int64
	h := NewHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		inner.ServeHTTP(w, r)
	}), Config{})
	path := "/v1/tiles/base/1/2"
	get(t, h, path, nil) // the GET entry is cached now
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodHead, path, nil)
		req.RemoteAddr = "192.0.2.1:1234"
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Body.Len() != 0 || w.Header().Get("X-Tile-State") != "live:7:0badcafe" {
			t.Fatalf("probe %d: %d, %d-byte body, state %q", i, w.Code, w.Body.Len(), w.Header().Get("X-Tile-State"))
		}
	}
	if w := get(t, h, path, nil); w.Body.String() != "tile-bytes" {
		t.Fatalf("GET after probes: %q", w.Body.String())
	}
	if got := calls.Load(); got != 4 { // 1 GET + 3 probes; the last GET is a cache hit
		t.Fatalf("inner calls = %d, want 4", got)
	}
	if s := h.Stats(); s.CacheHits != 1 || s.Coalesced != 0 {
		t.Errorf("cache hits %d coalesced %d, want 1 and 0", s.CacheHits, s.Coalesced)
	}
	checkInvariant(t, h)
}

func TestHandlerListResponsesNotCached(t *testing.T) {
	inner := &gatedHandler{body: "[]"}
	h := NewHandler(inner, Config{})
	get(t, h, "/v1/tiles/base", nil)
	get(t, h, "/v1/tiles/base", nil)
	get(t, h, "/v1/layers", nil)
	if got := inner.calls.Load(); got != 3 {
		t.Fatalf("list endpoints served from cache: %d inner calls, want 3", got)
	}
	checkInvariant(t, h)
}

func TestHandlerCoalescing(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
		body:    "hot",
	}
	// Cache disabled so coalescing alone carries the load.
	h := NewHandler(inner, Config{CacheSize: -1, MaxConcurrent: 64})

	const herd = 16
	var wg sync.WaitGroup
	codes := make(chan int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := get(t, h, "/v1/tiles/base/0/0", nil)
			codes <- w.Code
		}()
	}
	<-inner.entered // the leader reached the store
	// Wait until every follower has joined the flight, then release.
	deadline := time.After(5 * time.Second)
	for h.Stats().Coalesced < herd-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d coalesced", h.Stats().Coalesced)
		case <-time.After(time.Millisecond):
		}
	}
	close(inner.release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Errorf("herd member got %d", c)
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner calls = %d, want 1 (coalesced)", got)
	}
	s := h.Stats()
	if s.Coalesced != herd-1 {
		t.Errorf("coalesced = %d, want %d", s.Coalesced, herd-1)
	}
	checkInvariant(t, h)
}

// mutableStore is an inner handler backed by one mutable body: GETs
// capture the current body then block until released (modelling a slow
// store read), PUTs replace the body immediately. It reproduces the
// read/write race window the cache must survive.
type mutableStore struct {
	mu      sync.Mutex
	body    string
	gets    atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (s *mutableStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut {
		s.mu.Lock()
		s.body = "new"
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.gets.Add(1)
	s.mu.Lock()
	body := s.body
	s.mu.Unlock()
	_, _ = w.Write([]byte(body)) // bytes captured; possibly stale by release time
	s.entered <- struct{}{}
	<-s.release
}

// TestHandlerWriteDuringReadNotCachedStale pins the stale-cache race:
// a detached GET leader captures pre-PUT bytes, the PUT completes and
// invalidates the cache, and only then does the leader finish. Its
// late insert must be suppressed, or the cache would serve the old
// tile indefinitely.
func TestHandlerWriteDuringReadNotCachedStale(t *testing.T) {
	store := &mutableStore{
		body:    "old",
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	h := NewHandler(store, Config{MaxConcurrent: 8})
	path := "/v1/tiles/base/1/2"

	first := make(chan string, 1)
	go func() {
		w := get(t, h, path, nil)
		first <- w.Body.String()
	}()
	<-store.entered // leader holds "old" and is parked inside the store

	// The PUT lands while the read is in flight: store now says "new",
	// the cache entry (none yet) is invalidated, the flight poisoned.
	req := httptest.NewRequest(http.MethodPut, path, strings.NewReader("new"))
	req.RemoteAddr = "192.0.2.1:1234"
	h.ServeHTTP(httptest.NewRecorder(), req)

	close(store.release)
	// The racing reader may legitimately see the pre-write bytes...
	if got := <-first; got != "old" {
		t.Fatalf("racing read = %q, want the pre-write %q", got, "old")
	}
	// ...but the cache must not keep them: the next read goes back to
	// the store and returns the post-PUT bytes.
	w := get(t, h, path, nil)
	if got := w.Body.String(); got != "new" {
		t.Fatalf("post-PUT read = %q, want %q (stale bytes re-entered the cache)", got, "new")
	}
	if got := store.gets.Load(); got != 2 {
		t.Errorf("store gets = %d, want 2 (poisoned insert must not satisfy the refill)", got)
	}
	// The fresh bytes are cacheable as usual.
	w = get(t, h, path, nil)
	if got := w.Body.String(); got != "new" || store.gets.Load() != 2 {
		t.Errorf("refill not cached: body=%q gets=%d", got, store.gets.Load())
	}
	checkInvariant(t, h)
}

// TestHandlerQueryStringKeying pins that a tile GET with a query
// string neither coalesces with nor populates the bare path's cache
// entry, and is itself never cached.
func TestHandlerQueryStringKeying(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
		body:    "tile",
	}
	h := NewHandler(inner, Config{MaxConcurrent: 8})

	var wg sync.WaitGroup
	for _, target := range []string{"/v1/tiles/base/1/2?v=1", "/v1/tiles/base/1/2?v=2"} {
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			get(t, h, target, nil)
		}(target)
	}
	// Both variants must reach the inner handler — distinct queries are
	// distinct requests and may not share one flight.
	<-inner.entered
	<-inner.entered
	close(inner.release)
	wg.Wait()
	if got := h.Stats().Coalesced; got != 0 {
		t.Errorf("coalesced = %d, want 0 across distinct queries", got)
	}
	// Query responses were not cached — neither under their own key nor
	// under the bare path.
	get(t, h, "/v1/tiles/base/1/2?v=1", nil)
	get(t, h, "/v1/tiles/base/1/2", nil)
	if got := inner.calls.Load(); got != 4 {
		t.Errorf("inner calls = %d, want 4 (query responses leaked into the cache)", got)
	}
	checkInvariant(t, h)
}

// TestHandlerNonTileGetsNotCoalesced pins that coalescing is restricted
// to tile paths: responses of arbitrary inner routes may vary by
// header, so sharing one captured response across clients would leak.
func TestHandlerNonTileGetsNotCoalesced(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
		body:    "[]",
	}
	h := NewHandler(inner, Config{MaxConcurrent: 8, CacheSize: -1})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, h, "/v1/layers", nil)
		}()
	}
	<-inner.entered
	<-inner.entered // both concurrent list GETs reached the inner handler
	close(inner.release)
	wg.Wait()
	if got := h.Stats().Coalesced; got != 0 {
		t.Errorf("coalesced = %d, want 0 on non-tile paths", got)
	}
	checkInvariant(t, h)
}

func TestHandlerRateLimit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	inner := &gatedHandler{body: "x"}
	h := NewHandler(inner, Config{RatePerClient: 1, RateBurst: 2, Now: clk.now, CacheSize: -1})

	hdrA := map[string]string{ClientIDHeader: "vehicle-a"}
	for i := 0; i < 2; i++ {
		if w := get(t, h, "/v1/layers", hdrA); w.Code != http.StatusOK {
			t.Fatalf("burst %d = %d", i, w.Code)
		}
	}
	w := get(t, h, "/v1/layers", hdrA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if w.Header().Get(ShedHeader) != "rate-limit" {
		t.Errorf("shed header = %q", w.Header().Get(ShedHeader))
	}
	// Another client is unaffected.
	if w := get(t, h, "/v1/layers", map[string]string{ClientIDHeader: "vehicle-b"}); w.Code != http.StatusOK {
		t.Errorf("vehicle-b punished: %d", w.Code)
	}
	// Time heals vehicle-a.
	clk.advance(2 * time.Second)
	if w := get(t, h, "/v1/layers", hdrA); w.Code != http.StatusOK {
		t.Errorf("post-refill = %d", w.Code)
	}
	s := h.Stats()
	if s.Shed != 1 || s.RateLimited != 1 {
		t.Errorf("shed/rateLimited = %d/%d, want 1/1", s.Shed, s.RateLimited)
	}
	checkInvariant(t, h)
}

func TestHandlerAdmissionShedding(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
		body:    "x",
	}
	h := NewHandler(inner, Config{MaxConcurrent: 1, MaxWait: 5 * time.Millisecond, CacheSize: -1})

	done := make(chan int, 1)
	go func() {
		w := get(t, h, "/v1/tiles/base/0/0", nil)
		done <- w.Code
	}()
	<-inner.entered // the slot is held

	// Distinct path: no coalescing, must fight for admission and lose.
	w := get(t, h, "/v1/tiles/base/9/9", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if w.Header().Get(ShedHeader) != "admission" {
		t.Errorf("shed header = %q", w.Header().Get(ShedHeader))
	}
	close(inner.release)
	if c := <-done; c != http.StatusOK {
		t.Errorf("admitted request = %d", c)
	}
	checkInvariant(t, h)
}

func TestHandlerRequestTimeout(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
		body:    "slow",
	}
	h := NewHandler(inner, Config{RequestTimeout: 20 * time.Millisecond, CacheSize: -1})
	w := get(t, h, "/v1/tiles/base/0/0", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("timeout = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("timeout 503 missing Retry-After")
	}
	// Deadline expiries are counted in Errored, not Shed, so they must
	// not carry the shed marker: X-Overload present iff counted shed.
	if got := w.Header().Get(ShedHeader); got != "" {
		t.Errorf("deadline response carries %s=%q, but is counted errored", ShedHeader, got)
	}
	close(inner.release)
	s := h.Stats()
	if s.Errored != 1 {
		t.Errorf("errored = %d, want 1", s.Errored)
	}
	if s.Shed != 0 {
		t.Errorf("shed = %d, want 0", s.Shed)
	}
	checkInvariant(t, h)
}

func TestHandlerPanicIsolation(t *testing.T) {
	h := NewHandler(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("poisoned tile")
	}), Config{CacheSize: -1})
	w := get(t, h, "/v1/tiles/base/0/0", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panic = %d, want 500", w.Code)
	}
	// Writes panic too — and must not leak the panic to the server.
	req := httptest.NewRequest(http.MethodPut, "/v1/tiles/base/0/0", strings.NewReader("x"))
	req.RemoteAddr = "192.0.2.1:1234"
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusInternalServerError {
		t.Fatalf("panic on PUT = %d, want 500", rw.Code)
	}
	s := h.Stats()
	if s.Errored != 2 {
		t.Errorf("errored = %d, want 2", s.Errored)
	}
	checkInvariant(t, h)
}

func TestHandlerDrain(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
		body:    "x",
	}
	h := NewHandler(inner, Config{CacheSize: -1, MaxConcurrent: 8})

	const inflight = 3
	codes := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		path := fmt.Sprintf("/v1/tiles/base/%d/0", i)
		go func() {
			w := get(t, h, path, nil)
			codes <- w.Code
		}()
	}
	for i := 0; i < inflight; i++ {
		<-inner.entered
	}
	h.StartDrain()

	// New traffic is refused with Retry-After while old traffic drains.
	w := get(t, h, "/v1/tiles/base/9/9", nil)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("drain shed: %d, Retry-After=%q", w.Code, w.Header().Get("Retry-After"))
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- h.Drain(ctx)
	}()
	close(inner.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < inflight; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("in-flight request dropped during drain: %d", c)
		}
	}
	checkInvariant(t, h)

	// Drain on an idle handler returns immediately; deadline exceeded is
	// reported when requests cannot finish.
	if err := h.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
}

// TestHandlerDrainWaitsForDetachedLeader pins that Drain does not
// certify quiescence while a detached singleflight leader — whose
// spawning client already hung up — is still reading the store.
func TestHandlerDrainWaitsForDetachedLeader(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
		body:    "x",
	}
	h := NewHandler(inner, Config{CacheSize: -1, RequestTimeout: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/tiles/base/0/0", nil).WithContext(ctx)
	req.RemoteAddr = "192.0.2.1:1234"
	done := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		done <- w.Code
	}()
	<-inner.entered // the leader is inside the store
	cancel()        // the client abandons the read; the leader keeps going
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned read = %d, want 503", code)
	}
	if got := h.Stats().Inflight; got != 0 {
		t.Fatalf("inflight = %d after the client left, want 0", got)
	}

	// Zero inflight, yet the store is still being read: Drain must not
	// return nil until the leader finishes.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer scancel()
	if err := h.Drain(sctx); err == nil {
		t.Fatal("drain certified quiescence with a detached store read still running")
	}
	close(inner.release)
	if err := h.Drain(context.Background()); err != nil {
		t.Fatalf("drain after leader finished: %v", err)
	}
}

func TestHandlerDrainDeadline(t *testing.T) {
	inner := &gatedHandler{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	h := NewHandler(inner, Config{CacheSize: -1, RequestTimeout: time.Minute})
	go get(t, h, "/v1/tiles/base/0/0", nil)
	<-inner.entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := h.Drain(ctx); err == nil {
		t.Fatal("drain met its deadline with a stuck request in flight")
	}
	close(inner.release)
}
