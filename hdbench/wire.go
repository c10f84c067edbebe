package hdbench

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// Wire is an http.RoundTripper that serves each request by calling the
// handler registered for its URL host directly, on the caller's
// goroutine: no listener, no kernel TCP, so a run prices the program and
// not the loopback stack. It counts the body bytes that cross it in
// both directions, by route, with atomics only.
type Wire struct {
	hosts map[string]http.Handler

	requests     atomic.Int64
	tileRequests atomic.Int64
	listBytes    atomic.Int64
	tileBytes    atomic.Int64
}

func newWire() *Wire { return &Wire{hosts: make(map[string]http.Handler)} }

// route classifies a storage API path as a tile ("/v1/tiles/l/x/y"), a
// layer listing ("/v1/tiles/l"), or neither, and returns the tile or
// layer the path addresses.
func route(path string) (kind, key string) {
	rest, ok := strings.CutPrefix(path, "/v1/tiles/")
	if !ok {
		return "", ""
	}
	switch strings.Count(rest, "/") {
	case 0:
		return "list", rest
	case 2:
		return "tile", rest
	}
	return "", ""
}

// RoundTrip implements http.RoundTripper.
func (w *Wire) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := w.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("hdbench wire: no handler for host %q", req.URL.Host)
	}
	sreq := req.WithContext(req.Context()) // shallow copy: a RoundTripper must not modify req
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	rw := &response{header: make(http.Header)}
	h.ServeHTTP(rw, sreq)

	n := int64(rw.body.Len())
	if req.ContentLength > 0 {
		n += req.ContentLength
	}
	w.requests.Add(1)
	switch kind, _ := route(req.URL.Path); kind {
	case "list":
		w.listBytes.Add(n)
	case "tile":
		w.tileRequests.Add(1)
		w.tileBytes.Add(n)
	}
	if rw.code == 0 {
		rw.code = http.StatusOK
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rw.code, http.StatusText(rw.code)),
		StatusCode:    rw.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rw.header,
		Body:          io.NopCloser(bytes.NewReader(rw.body.Bytes())),
		ContentLength: int64(rw.body.Len()),
		Request:       req,
	}, nil
}

// response is the minimal http.ResponseWriter behind Wire.
type response struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *response) Header() http.Header { return r.header }

func (r *response) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *response) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// tracedHandler wraps the http.Handler at a layer's public boundary: it
// counts calls and, while the recorder is on, records one span per call.
type tracedHandler struct {
	next  http.Handler
	rec   *Recorder
	layer string
	node  string
	calls atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.calls.Add(1)
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.rec.now()
	h.next.ServeHTTP(w, r)
	end := h.rec.now()
	_, key := route(r.URL.Path)
	h.rec.record(Span{
		Name: h.layer, Op: r.Method, Node: h.node, Key: key,
		Trace: r.Header.Get(obs.TraceHeader), Start: start, End: end,
	})
}

// tracedStore wraps a storage.TileStore the same way. The TileStore
// interface carries no trace ID, so its spans are linked to the
// tile-server call that was open when they started (see resolveParents).
type tracedStore struct {
	next storage.TileStore
	rec  *Recorder
	node string

	gets, keys, puts, deletes atomic.Int64
	putBytes                  atomic.Int64

	// changed counts Puts whose bytes differ from the previous Put of the
	// same key (a first Put counts). Tracked only when last is non-nil: a
	// CRC per Put is not free, so untraced runs skip it.
	changed atomic.Int64
	mu      sync.Mutex
	last    map[storage.TileKey]uint32
}

func newTracedStore(next storage.TileStore, rec *Recorder, node string, trackChanges bool) *tracedStore {
	s := &tracedStore{next: next, rec: rec, node: node}
	if trackChanges {
		s.last = make(map[storage.TileKey]uint32)
	}
	return s
}

func tileName(k storage.TileKey) string { return fmt.Sprintf("%s/%d/%d", k.Layer, k.TX, k.TY) }

// begin returns the start time of a store call, or -1 with recording off.
func (s *tracedStore) begin() int64 {
	if !s.rec.on.Load() {
		return -1
	}
	return s.rec.now()
}

// end records the span of a store call begun at start.
func (s *tracedStore) end(start int64, op string, key storage.TileKey) {
	if start < 0 {
		return
	}
	end := s.rec.now()
	name := key.Layer
	if op != "keys" {
		name = tileName(key)
	}
	s.rec.record(Span{Name: layerStore, Op: op, Node: s.node, Key: name, Start: start, End: end})
}

// Put implements storage.TileStore.
func (s *tracedStore) Put(key storage.TileKey, data []byte) error {
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	if s.last != nil {
		sum := crc32.ChecksumIEEE(data)
		s.mu.Lock()
		if prev, ok := s.last[key]; !ok || prev != sum {
			s.changed.Add(1)
		}
		s.last[key] = sum
		s.mu.Unlock()
	}
	start := s.begin()
	err := s.next.Put(key, data)
	s.end(start, "put", key)
	return err
}

// Get implements storage.TileStore.
func (s *tracedStore) Get(key storage.TileKey) ([]byte, error) {
	s.gets.Add(1)
	start := s.begin()
	data, err := s.next.Get(key)
	s.end(start, "get", key)
	return data, err
}

// Keys implements storage.TileStore.
func (s *tracedStore) Keys(layer string) ([]storage.TileKey, error) {
	s.keys.Add(1)
	start := s.begin()
	keys, err := s.next.Keys(layer)
	s.end(start, "keys", storage.TileKey{Layer: layer})
	return keys, err
}

// ListLayers implements storage.TileStore.
func (s *tracedStore) ListLayers() ([]string, error) { return s.next.ListLayers() }

// Delete implements storage.TileStore.
func (s *tracedStore) Delete(key storage.TileKey) error {
	s.deletes.Add(1)
	start := s.begin()
	err := s.next.Delete(key)
	s.end(start, "delete", key)
	return err
}
