package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hdmaps/internal/obs"
)

// ChecksumHeader carries the CRC32-C (Castagnoli) checksum of a tile
// payload, as lowercase hex. The server sets it on every tile GET so
// clients can verify integrity end-to-end; clients set it on PUT so the
// server can reject uploads corrupted in transit before they ever reach
// the store.
const ChecksumHeader = "X-Tile-Crc32c"

// TransientHeader marks a 4xx response as caused by in-transit damage
// rather than a bad request, telling clients the attempt is worth
// retrying.
const TransientHeader = "X-Tile-Transient"

// castagnoli is the CRC32-C table used for tile checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of a tile payload, formatted for
// ChecksumHeader.
func Checksum(data []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(data, castagnoli))
}

// ChecksumMatches reports whether data has the checksum a
// ChecksumHeader value names; a malformed value matches nothing. The
// comparison is numeric, so verifying formats no string.
func ChecksumMatches(header string, data []byte) bool {
	want, err := strconv.ParseUint(header, 16, 32)
	return err == nil && uint32(want) == crc32.Checksum(data, castagnoli)
}

// ErrBodyTooLarge rejects a request or response body over the reader's
// limit. It is not transient: a peer streaming without end will do so
// again.
var ErrBodyTooLarge = errors.New("storage: body too large")

// ReadBody reads an HTTP body of at most limit bytes — the one bounded
// body reader of the tile protocol. The buffer is sized once from
// contentLength when the peer sent a believable one, so a tile is not
// re-grown from 512 bytes up. Read failures come back bare; a body over
// the limit is ErrBodyTooLarge, never a silent truncation.
func ReadBody(body io.Reader, contentLength, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if contentLength > 0 && contentLength <= limit {
		// MinRead of slack lets ReadFrom see EOF without growing.
		buf.Grow(int(contentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(body, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, ErrBodyTooLarge
	}
	return buf.Bytes(), nil
}

// TileServer exposes a TileStore over HTTP — the central map-distribution
// node of the ecosystem (vehicles pull tiles for their region; update
// pipelines push patched tiles; decoupled layers update independently).
//
// Routes:
//
//	GET    /v1/layers                    -> ["base", "crowd-signs", ...]
//	GET    /v1/tiles/{layer}             -> [{"tx":..,"ty":..}, ...]
//	GET    /v1/tiles/{layer}?bbox=tx0,ty0,tx1,ty1
//	                                     -> the same, only keys inside
//	                                        the inclusive tile window
//	GET    /v1/tiles/{layer}?bbox=...&state=1
//	                                     -> the window's manifest: each
//	                                        entry with "state", deleted
//	                                        keys included as tomb:<clock>
//	GET    /v1/tiles/{layer}/{tx}/{ty}   -> tile bytes (binary map)
//	HEAD   /v1/tiles/{layer}/{tx}/{ty}   -> StateHeader, no body
//	PUT    /v1/tiles/{layer}/{tx}/{ty}   <- tile bytes
//	DELETE /v1/tiles/{layer}/{tx}/{ty}
//
// Tile GETs carry a ChecksumHeader; error responses have a JSON body
// {"error": "..."}. Concurrency follows the store's guarantees; the
// server adds a read-write mutex so a PUT is atomic relative to GETs of
// the same key.
type TileServer struct {
	store TileStore
	mu    sync.RWMutex
	// sums remembers each tile's checksum as computed at PUT time. A GET
	// serves the write-time checksum when one is known, so corruption at
	// rest (a flaky disk between Put and Get) is detectable by clients —
	// a checksum recomputed over already-damaged bytes would vouch for
	// the damage.
	sums map[TileKey]string
	// clocks remembers each tile's logical clock as decoded at PUT time,
	// so digest computation does not re-decode every payload per sweep.
	clocks map[TileKey]uint64
	// tombs holds the per-key deletion markers (keyed by the *live* key)
	// backing the tomb-- shadow layers. A key is in exactly one of three
	// states under mu: live (store has it), tombstoned (tombs has it), or
	// absent (neither).
	tombs map[TileKey]tombRecord
	// MaxTileBytes bounds accepted uploads (default 16 MiB).
	MaxTileBytes int64
}

// tombRecord is a decoded deletion marker plus its canonical bytes and
// write-time checksum, cached so GETs and digests never re-decode.
type tombRecord struct {
	ts   Tombstone
	sum  string
	data []byte
}

// NewTileServer wraps a store. Any tomb-- shadow layers already in the
// store (a directory store surviving a restart) are rescanned so the
// per-key deletion state comes back with the data; unreadable markers
// are skipped best-effort — anti-entropy re-propagates them.
func NewTileServer(store TileStore) *TileServer {
	s := &TileServer{
		store:        store,
		sums:         make(map[TileKey]string),
		clocks:       make(map[TileKey]uint64),
		tombs:        make(map[TileKey]tombRecord),
		MaxTileBytes: 16 << 20,
	}
	layers, err := store.ListLayers()
	if err != nil {
		return s
	}
	for _, l := range layers {
		if !strings.HasPrefix(l, TombLayerPrefix) {
			continue
		}
		keys, err := store.Keys(l)
		if err != nil {
			continue
		}
		for _, k := range keys {
			data, err := store.Get(k)
			if err != nil {
				continue
			}
			ts, err := DecodeTombstone(data)
			live := TileKey{Layer: strings.TrimPrefix(l, TombLayerPrefix), TX: k.TX, TY: k.TY}
			if err != nil || ts.Key() != live {
				continue
			}
			// A crash mid-mutation can leave both a marker and a live tile
			// on disk: handlePut installs the live tile before removing the
			// shadow marker, and putTombstone installs the marker before
			// removing the live tile. Resurrecting a dominated marker would
			// make conditional writes and digests disagree with GET, so
			// finish whichever cleanup was interrupted instead: the
			// FresherState winner stays, the loser is deleted.
			if ld, lerr := store.Get(live); lerr == nil {
				if clock, cerr := PeekClock(ld); cerr == nil &&
					FresherState(false, clock, ld, true, ts.Clock, data) {
					_ = store.Delete(k)
					continue
				}
				_ = store.Delete(live)
			}
			s.tombs[live] = tombRecord{ts: ts, sum: Checksum(data), data: data}
		}
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *TileServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Echo the caller's trace ID (or mint one for untraced requests) so
	// error bodies and logs can be correlated even when the server runs
	// bare, without the resilience wrapper in front. The wrapper sets
	// the same header first, in which case this re-set is a no-op.
	r, trace := obs.EnsureRequestTrace(r)
	w.Header().Set(obs.TraceHeader, trace)
	path := strings.TrimPrefix(r.URL.Path, "/")
	parts := strings.Split(path, "/")
	switch {
	case len(parts) == 2 && parts[0] == "v1" && parts[1] == "layers":
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		s.handleLayers(w)
	case len(parts) == 3 && parts[0] == "v1" && parts[1] == "tiles":
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		if !ValidLayer(parts[2]) {
			writeJSONError(w, http.StatusBadRequest, ErrBadLayer.Error())
			return
		}
		s.handleList(w, r, parts[2])
	case len(parts) == 3 && parts[0] == "v1" && parts[1] == "digest":
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		if !ValidLayer(parts[2]) {
			writeJSONError(w, http.StatusBadRequest, ErrBadLayer.Error())
			return
		}
		s.handleDigest(w, r, parts[2])
	case len(parts) == 5 && parts[0] == "v1" && parts[1] == "tiles":
		key, err := ParseTileKey(parts[2], parts[3], parts[4])
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		switch r.Method {
		case http.MethodGet:
			s.handleGet(w, key)
		case http.MethodHead:
			s.handleHead(w, key)
		case http.MethodPut:
			s.handlePut(w, r, key)
		case http.MethodDelete:
			s.handleDelete(w, r, key)
		default:
			writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	default:
		writeJSONError(w, http.StatusNotFound, "not found")
	}
}

func (s *TileServer) handleLayers(w http.ResponseWriter) {
	s.mu.RLock()
	layers, err := s.store.ListLayers()
	s.mu.RUnlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if layers == nil {
		layers = []string{}
	}
	writeJSON(w, layers)
}

// TileWindow is an inclusive rectangle of tile coordinates — the bbox
// query of a layer listing.
type TileWindow struct{ TX0, TY0, TX1, TY1 int32 }

// Contains reports whether tile (tx, ty) lies in the window.
func (b TileWindow) Contains(tx, ty int32) bool {
	return tx >= b.TX0 && tx <= b.TX1 && ty >= b.TY0 && ty <= b.TY1
}

// String renders the window as a bbox query value.
func (b TileWindow) String() string {
	return fmt.Sprintf("%d,%d,%d,%d", b.TX0, b.TY0, b.TX1, b.TY1)
}

// ParseTileWindow parses a bbox query value "tx0,ty0,tx1,ty1".
func ParseTileWindow(v string) (TileWindow, error) {
	var c [4]int32
	parts := strings.Split(v, ",")
	if len(parts) != len(c) {
		return TileWindow{}, fmt.Errorf("bad bbox %q: want tx0,ty0,tx1,ty1", v)
	}
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			return TileWindow{}, fmt.Errorf("bad bbox %q: %w", v, err)
		}
		c[i] = int32(n)
	}
	return TileWindow{TX0: c[0], TY0: c[1], TX1: c[2], TY1: c[3]}, nil
}

// ManifestEntry is one element of a layer listing. State is set only in
// the answer to a state=1 query: the key's ReplicaState.String() as a
// HEAD probe of it would report it.
type ManifestEntry struct {
	TX    int32  `json:"tx"`
	TY    int32  `json:"ty"`
	State string `json:"state,omitempty"`
}

// maxStateLen bounds a state a listing is believed to carry:
// "live:" + 20 digits + ":" + 8 hex digits, with room to spare.
const maxStateLen = 64

// ReplicaState is the state the entry carries, ok only if it names a live
// tile or a deletion marker. Anything else — none, a forged or oversized
// one — is an entry without a state: its reader fetches the tile.
func (e ManifestEntry) ReplicaState() (st ReplicaState, ok bool) {
	if e.State == "" || len(e.State) > maxStateLen {
		return ReplicaState{}, false
	}
	st, err := ParseReplicaState(e.State)
	return st, err == nil && st.Present()
}

// handleList lists a layer's keys; a bbox query keeps only the keys in
// that window, so a region pull moves the nine entries it wants and not
// the layer. The filter runs here over store.Keys rather than in the
// store: TileStore stays five methods, and both stores answer Keys from
// memory, with a copy.
//
// With state=1 the listing is a manifest: every entry carries the state
// a HEAD probe of the key would report, read the same way — from
// sums/clocks/tombs, or through stateLocked the first time for a tile
// loaded out of band — and the window's tombstoned keys are listed too,
// as tomb:<clock>, so that a router merging manifests can tell a deleted
// key from one this shard never had. Without it the answer is the plain
// listing, byte for byte.
func (s *TileServer) handleList(w http.ResponseWriter, r *http.Request, layer string) {
	q := r.URL.Query()
	var win *TileWindow
	if v := q.Get("bbox"); v != "" {
		b, err := ParseTileWindow(v)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		win = &b
	}
	states := q.Get("state") == "1"
	s.mu.RLock()
	keys, err := s.store.Keys(layer)
	if win != nil { // keys is this call's own copy
		keys = slices.DeleteFunc(keys, func(k TileKey) bool { return !win.Contains(k.TX, k.TY) })
	}
	out := make([]ManifestEntry, 0, len(keys))
	var unknown []int // entries whose state the write-time caches do not hold
	for _, k := range keys {
		e := ManifestEntry{TX: k.TX, TY: k.TY}
		if states {
			if st, known := s.cachedStateLocked(k); known {
				e.State = st.String()
			} else {
				unknown = append(unknown, len(out))
			}
		}
		out = append(out, e)
	}
	live := len(out)
	if states {
		for k := range s.tombs {
			if k.Layer == layer && (win == nil || win.Contains(k.TX, k.TY)) {
				st, _ := s.cachedStateLocked(k)
				out = append(out, ManifestEntry{TX: k.TX, TY: k.TY, State: st.String()})
			}
		}
	}
	s.mu.RUnlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if len(unknown) > 0 {
		s.mu.Lock()
		for _, i := range unknown {
			// A tile gone since the listing reads absent: no state, and
			// the reader's GET finds out.
			if st, _ := s.stateLocked(TileKey{Layer: layer, TX: out[i].TX, TY: out[i].TY}); st.Present() {
				out[i].State = st.String()
			}
		}
		s.mu.Unlock()
	}
	if len(out) > live {
		// The markers came out of a map; the listing is in Morton order.
		sort.Slice(out, func(i, j int) bool {
			return TileKey{TX: out[i].TX, TY: out[i].TY}.Morton() < TileKey{TX: out[j].TX, TY: out[j].TY}.Morton()
		})
	}
	writeJSON(w, out)
}

// handleHead answers a replica probe: the key's state in StateHeader
// (with the write-time checksum, and the deletion clock for a marker)
// and no body — what a cluster router compares across owners in place
// of R tile bodies. The state is the write-time one the digests also
// report, read under mu from sums/clocks/tombs; only a key those do not
// know (absent, or loaded out of band) costs a store read.
func (s *TileServer) handleHead(w http.ResponseWriter, key TileKey) {
	s.mu.RLock()
	st, known := s.cachedStateLocked(key)
	s.mu.RUnlock()
	if !known {
		s.mu.Lock()
		st, _ = s.stateLocked(key)
		s.mu.Unlock()
	}
	w.Header().Set(StateHeader, st.String())
	if st.Sum != "" {
		w.Header().Set(ChecksumHeader, st.Sum)
	}
	if st.Tomb {
		w.Header().Set(TombstoneHeader, strconv.FormatUint(st.Clock, 10))
	}
	if !st.Found {
		w.WriteHeader(http.StatusNotFound)
	}
}

func (s *TileServer) handleGet(w http.ResponseWriter, key TileKey) {
	s.mu.RLock()
	data, err := s.store.Get(key)
	sum, haveSum := s.sums[key]
	tr, haveTomb := s.tombs[key]
	s.mu.RUnlock()
	if errors.Is(err, ErrNoTile) {
		if haveTomb {
			// Deleted, not merely absent: a 404 carrying the deletion
			// clock and the exact marker bytes, so a cluster router can
			// distinguish "never had it" from "removed at clock c" and
			// propagate the marker to replicas that missed the delete.
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(ChecksumHeader, tr.sum)
			w.Header().Set(TombstoneHeader, strconv.FormatUint(tr.ts.Clock, 10))
			w.Header().Set("Content-Length", strconv.Itoa(len(tr.data)))
			w.WriteHeader(http.StatusNotFound)
			_, _ = w.Write(tr.data)
			return
		}
		writeJSONError(w, http.StatusNotFound, "tile not found")
		return
	}
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !haveSum {
		// Tile predates this server instance (loaded out of band): the
		// best available checksum is over what the store returned now.
		sum = Checksum(data)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(ChecksumHeader, sum)
	// An explicit length keeps a socket from chunking the tile, so the
	// reader (ReadBody) can size its buffer once.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *TileServer) handlePut(w http.ResponseWriter, r *http.Request, key TileKey) {
	limit := s.MaxTileBytes
	if limit <= 0 {
		limit = 16 << 20
	}
	data, err := ReadBody(r.Body, r.ContentLength, limit)
	if errors.Is(err, ErrBodyTooLarge) {
		writeJSONError(w, http.StatusRequestEntityTooLarge, "tile too large")
		return
	}
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A checksum mismatch means the payload was damaged in transit — the
	// uploader should retry, so refuse before the decode check and mark
	// the failure retryable for well-behaved clients.
	if want := r.Header.Get(ChecksumHeader); want != "" && !ChecksumMatches(want, data) {
		w.Header().Set(TransientHeader, "checksum-mismatch")
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("checksum mismatch: got %s want %s", Checksum(data), want))
		return
	}
	if strings.HasPrefix(key.Layer, TombLayerPrefix) {
		// Shadow layers change only through tombstone writes on the live
		// key; a direct write could desynchronise marker and state.
		writeJSONError(w, http.StatusUnprocessableEntity, "reserved layer")
		return
	}
	if strings.HasPrefix(key.Layer, HintLayerPrefix) {
		s.putHintCopy(w, key, data)
		return
	}
	if IsTombstone(data) {
		ts, err := DecodeTombstone(data)
		if err != nil {
			writeJSONError(w, http.StatusUnprocessableEntity, fmt.Sprintf("invalid tombstone: %v", err))
			return
		}
		s.putTombstone(w, r, key, ts, data)
		return
	}
	// Tiles must decode as maps: the server refuses corrupt uploads so a
	// bad producer cannot poison consumers.
	tile, err := parseTile(data)
	if err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, fmt.Sprintf("invalid tile: %v", err))
		return
	}
	clock := tile.clock
	s.mu.Lock()
	cur, curData := s.stateLocked(key)
	if !s.checkExpectLocked(w, r, cur) {
		s.mu.Unlock()
		return
	}
	if cur.Tomb && !FresherState(false, clock, data, true, cur.Clock, curData) {
		// Resurrection guard: a write that does not dominate the local
		// tombstone is a replay of something the delete already erased.
		s.mu.Unlock()
		w.Header().Set(StateHeader, cur.String())
		writeJSONError(w, http.StatusConflict, "write superseded by tombstone")
		return
	}
	err = s.store.Put(key, data)
	if err == nil {
		s.sums[key] = Checksum(data)
		s.clocks[key] = clock
		if cur.Tomb {
			_ = s.store.Delete(TileKey{Layer: tombLayer(key.Layer), TX: key.TX, TY: key.TY})
			delete(s.tombs, key)
		}
	}
	s.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// putHintCopy parks a handoff payload raw under a hint-- layer. Both
// tile and tombstone bytes are accepted — a durable delete hint *is* a
// parked marker — but the payload must decode as one of the two, so a
// damaged copy cannot later replay as garbage.
func (s *TileServer) putHintCopy(w http.ResponseWriter, key TileKey, data []byte) {
	if _, terr := DecodeTombstone(data); terr != nil {
		if _, err := parseTile(data); err != nil {
			writeJSONError(w, http.StatusUnprocessableEntity, fmt.Sprintf("invalid hint payload: %v", err))
			return
		}
	}
	s.mu.Lock()
	err := s.store.Put(key, data)
	if err == nil {
		s.sums[key] = Checksum(data)
	}
	s.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// putTombstone applies a deletion marker to a live key: the marker is
// stored under the tomb-- shadow layer and the live tile (if any) is
// removed, atomically with the Expect precondition under s.mu.
func (s *TileServer) putTombstone(w http.ResponseWriter, r *http.Request, key TileKey, ts Tombstone, data []byte) {
	if ts.Key() != key {
		writeJSONError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("tombstone key %v does not match %v", ts.Key(), key))
		return
	}
	s.mu.Lock()
	cur, curData := s.stateLocked(key)
	if !s.checkExpectLocked(w, r, cur) {
		s.mu.Unlock()
		return
	}
	if cur.Tomb && !FresherState(true, ts.Clock, data, true, cur.Clock, curData) {
		// An equal-or-fresher marker is already here — idempotent ack.
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if cur.Found && !FresherState(true, ts.Clock, data, false, cur.Clock, curData) {
		// The live tile postdates the delete: the marker is obsolete and
		// must not erase newer data. 409 tells the router "acked, but
		// superseded" — distinct from a precondition mismatch.
		s.mu.Unlock()
		w.Header().Set(StateHeader, cur.String())
		writeJSONError(w, http.StatusConflict, "tombstone superseded by newer tile")
		return
	}
	err := s.store.Put(TileKey{Layer: tombLayer(key.Layer), TX: key.TX, TY: key.TY}, data)
	if err == nil && cur.Found {
		err = s.store.Delete(key)
	}
	if err == nil {
		delete(s.sums, key)
		delete(s.clocks, key)
		s.tombs[key] = tombRecord{ts: ts, sum: Checksum(data), data: data}
	}
	s.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *TileServer) handleDelete(w http.ResponseWriter, r *http.Request, key TileKey) {
	s.mu.Lock()
	cur, _ := s.stateLocked(key)
	if !s.checkExpectLocked(w, r, cur) {
		s.mu.Unlock()
		return
	}
	var err error
	if cur.Tomb && r.Header.Get(ExpectHeader) != "" {
		// Conditional delete of a tombstoned key is marker GC: the caller
		// proved it observed exactly this marker, so reclaiming it cannot
		// lose a deletion some replica still needs.
		err = s.store.Delete(TileKey{Layer: tombLayer(key.Layer), TX: key.TX, TY: key.TY})
		if err == nil {
			delete(s.tombs, key)
		}
	} else {
		err = s.store.Delete(key)
		if err == nil {
			delete(s.sums, key)
			delete(s.clocks, key)
		}
	}
	s.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// cachedStateLocked returns the key's state when the write-time caches
// hold all of it. Caller holds s.mu (read or write).
func (s *TileServer) cachedStateLocked(key TileKey) (ReplicaState, bool) {
	if tr, ok := s.tombs[key]; ok {
		return ReplicaState{Tomb: true, Clock: tr.ts.Clock, Sum: tr.sum}, true
	}
	sum, okSum := s.sums[key]
	clock, okClock := s.clocks[key]
	return ReplicaState{Found: true, Clock: clock, Sum: sum}, okSum && okClock
}

// stateLocked returns the key's current conditional-write state and,
// for live/tombstoned keys, the payload bytes backing same-clock
// tie-breaks. Caller holds s.mu.
func (s *TileServer) stateLocked(key TileKey) (ReplicaState, []byte) {
	if tr, ok := s.tombs[key]; ok {
		return ReplicaState{Tomb: true, Clock: tr.ts.Clock, Sum: tr.sum}, tr.data
	}
	data, err := s.store.Get(key)
	if err != nil {
		return ReplicaState{}, nil
	}
	sum, ok := s.sums[key]
	if !ok {
		sum = Checksum(data)
		s.sums[key] = sum
	}
	clock, ok := s.clocks[key]
	if !ok {
		if c, perr := PeekClock(data); perr == nil {
			clock = c
			s.clocks[key] = c
		}
	}
	return ReplicaState{Found: true, Clock: clock, Sum: sum}, data
}

// checkExpectLocked evaluates the ExpectHeader precondition against the
// current state; on mismatch it answers 412 with the observed state in
// StateHeader and returns false. Caller holds s.mu, so the check is
// atomic with whatever mutation follows.
func (s *TileServer) checkExpectLocked(w http.ResponseWriter, r *http.Request, cur ReplicaState) bool {
	v := r.Header.Get(ExpectHeader)
	if v == "" {
		return true
	}
	want, err := ParseReplicaState(v)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return false
	}
	match := want.Tomb == cur.Tomb && want.Found == cur.Found && want.Clock == cur.Clock &&
		(!want.Found || want.Sum == cur.Sum)
	if !match {
		w.Header().Set(StateHeader, cur.String())
		writeJSONError(w, http.StatusPreconditionFailed, "state is "+cur.String()+", expected "+want.String())
		return false
	}
	return true
}

// writeJSON sends a JSON body with a ChecksumHeader so clients can
// detect in-transit damage to metadata (a corrupted tile list is as
// dangerous as a corrupted tile). The body is marshalled *before* any
// header or status reaches the wire: an encode failure must be free to
// switch to a 500 error response, which is impossible once WriteHeader
// has fired.
func writeJSON(w http.ResponseWriter, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ChecksumHeader, Checksum(data))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// writeJSONError sends {"error": msg} with the given status so clients
// can distinguish structured failures from tile payloads. The body is
// encoded before the status is written; if the message itself cannot
// be marshalled (it never should — but an error path must not have
// error paths) a canned body is served instead of calling WriteHeader
// twice.
// The trace ID already stamped on the response header is repeated in
// the body, so a client that dropped the headers still has the join
// key for a support report.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	body := map[string]string{"error": msg}
	if trace := w.Header().Get(obs.TraceHeader); trace != "" {
		body["trace_id"] = trace
	}
	data, err := json.Marshal(body)
	if err != nil {
		data = []byte(`{"error":"internal error"}`)
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}
