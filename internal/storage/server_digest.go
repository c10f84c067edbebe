package storage

import (
	"net/http"
	"sort"
	"strconv"
)

// handleDigest serves the anti-entropy surface:
//
//	GET /v1/digest/{layer}           -> LayerDigest (bucket summaries)
//	GET /v1/digest/{layer}?bucket=N  -> []DigestEntry for one bucket
//	GET /v1/digest/{layer}?tombs=1   -> []DigestEntry of tombstones with
//	                                    Created/TTL, for GC-ledger rebuild
//
// Internal (hint--/tomb--) layers are refused: tombstones already ride
// the live layer's digest, and handoff copies are transit, not state.
func (s *TileServer) handleDigest(w http.ResponseWriter, r *http.Request, layer string) {
	if IsInternalLayer(layer) {
		writeJSONError(w, http.StatusBadRequest, "bad digest layer")
		return
	}
	q := r.URL.Query()
	if q.Get("tombs") != "" {
		writeJSON(w, s.TombstoneList(layer))
		return
	}
	if bs := q.Get("bucket"); bs != "" {
		b, err := strconv.Atoi(bs)
		if err != nil || b < 0 || b >= DigestBuckets {
			writeJSONError(w, http.StatusBadRequest, "bad bucket")
			return
		}
		entries, derr := s.DigestEntries(layer, b)
		if derr != nil {
			writeJSONError(w, http.StatusInternalServerError, derr.Error())
			return
		}
		writeJSON(w, entries)
		return
	}
	d, err := s.LayerDigest(layer)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, d)
}

// LayerDigest summarises one layer's live tiles and tombstones into the
// fixed bucket vector the anti-entropy sweeper compares across nodes.
func (s *TileServer) LayerDigest(layer string) (LayerDigest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.digestEntriesLocked(layer)
	if err != nil {
		return LayerDigest{}, err
	}
	var acc [DigestBuckets]uint64
	var counts [DigestBuckets]int
	for _, e := range entries {
		b := DigestBucketOf(e.TX, e.TY)
		acc[b] ^= DigestEntryHash(e)
		counts[b]++
	}
	d := LayerDigest{Layer: layer, Count: len(entries), Buckets: make([]BucketDigest, DigestBuckets)}
	for i := range d.Buckets {
		d.Buckets[i] = BucketDigest{Count: counts[i], Digest: formatDigest(acc[i])}
	}
	return d, nil
}

// DigestEntries lists one bucket's (key, clock, CRC, tomb) tuples — the
// leaf level of the digest exchange, fetched only for buckets whose
// summaries disagree.
func (s *TileServer) DigestEntries(layer string, bucket int) ([]DigestEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.digestEntriesLocked(layer)
	if err != nil {
		return nil, err
	}
	out := make([]DigestEntry, 0, len(entries))
	for _, e := range entries {
		if DigestBucketOf(e.TX, e.TY) == bucket {
			out = append(out, e)
		}
	}
	return out, nil
}

// TombstoneList enumerates a layer's deletion markers with their
// Created/TTL fields, letting a restarted router rebuild its GC ledger
// from shard state instead of losing track of pending tombstones.
func (s *TileServer) TombstoneList(layer string) []DigestEntry {
	s.mu.RLock()
	out := make([]DigestEntry, 0, 4)
	for k, tr := range s.tombs {
		if k.Layer != layer {
			continue
		}
		out = append(out, DigestEntry{
			TX: k.TX, TY: k.TY,
			Clock: tr.ts.Clock, Sum: tr.sum, Tomb: true,
			Created: tr.ts.Created, TTLSeconds: tr.ts.TTLSeconds,
		})
	}
	s.mu.RUnlock()
	sortDigestEntries(out)
	return out
}

// digestEntriesLocked enumerates all digest tuples for a layer: live
// tiles (clock/sum from the write-time caches, lazily rebuilt for keys
// loaded out of band) plus tombstones. Caller holds s.mu.
//
// Digests deliberately use write-time checksums: at-rest rot is the
// read path's problem (it re-verifies CRCs and triggers repair), while
// the sweep compares what each replica *accepted*.
func (s *TileServer) digestEntriesLocked(layer string) ([]DigestEntry, error) {
	keys, err := s.store.Keys(layer)
	if err != nil {
		return nil, err
	}
	out := make([]DigestEntry, 0, len(keys))
	for _, k := range keys {
		e := DigestEntry{TX: k.TX, TY: k.TY}
		clock, okClock := s.clocks[k]
		sum, okSum := s.sums[k]
		if !okClock || !okSum {
			data, gerr := s.store.Get(k)
			if gerr != nil {
				continue
			}
			if !okSum {
				sum = Checksum(data)
				s.sums[k] = sum
			}
			if !okClock {
				// An unreadable tile digests at clock 0 — visibly stale,
				// so sweeps flag and repair it. Not cached: if the bytes
				// heal, the next digest sees the real clock.
				if c, perr := PeekClock(data); perr == nil {
					clock = c
					s.clocks[k] = c
				}
			}
		}
		e.Clock, e.Sum = clock, sum
		out = append(out, e)
	}
	for k, tr := range s.tombs {
		if k.Layer != layer {
			continue
		}
		out = append(out, DigestEntry{TX: k.TX, TY: k.TY, Clock: tr.ts.Clock, Sum: tr.sum, Tomb: true})
	}
	sortDigestEntries(out)
	return out, nil
}

// sortDigestEntries orders entries by (tx, ty) so digest documents are
// deterministic and diffable.
func sortDigestEntries(out []DigestEntry) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].TX != out[j].TX {
			return out[i].TX < out[j].TX
		}
		return out[i].TY < out[j].TY
	})
}
