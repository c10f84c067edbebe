package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/storage"
)

// Anti-entropy makes the cluster converge without traffic driving it.
// Read-repair and hinted handoff only heal keys that are read or whose
// owner outage the router witnessed; a cold tile written while an owner
// was down, a key whose owners moved after a ring change, or a delete
// a crashed router never finished all stay divergent forever under
// those mechanisms alone. The sweeper closes that gap with a two-level
// Merkle-style exchange:
//
//  1. Per (node, layer) it fetches a fixed 16-bucket digest vector — a
//     few hundred bytes regardless of key count.
//  2. A bucket whose digests changed since the last verified-converged
//     round is "suspect": its per-key (clock, CRC, tomb) leaf tuples
//     are fetched and reconciled key by key.
//
// Replicas legitimately hold different key subsets (each node stores
// only the keys it owns), so cross-node digest equality means nothing;
// what the sweeper compares is each node's digest against its own
// previous round. A bucket is skipped only when every node's digest is
// unchanged AND the previous round verified it converged AND every
// member is alive — any membership change or byte of churn re-opens it.
type aeState struct {
	// prev: layer -> bucket -> node -> "count:digest" from the last round.
	prev map[string]map[int]map[string]string
	// clean: layer -> bucket -> the last round verified this bucket
	// converged (all owners agree on every key in it).
	clean map[string]map[int]bool
}

func newAEState() *aeState {
	return &aeState{
		prev:  make(map[string]map[int]map[string]string),
		clean: make(map[string]map[int]bool),
	}
}

// sweepLoop runs sweep rounds at the configured interval until Close.
func (rt *Router) sweepLoop(iv time.Duration) {
	defer rt.bg.Done()
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.sweepOnce()
		}
	}
}

// SweepNow runs one full anti-entropy round synchronously: digest
// exchange, inline reconciliation of every divergence found, then a
// tombstone GC pass. Tests and the demo call it to make convergence
// deterministic instead of waiting out the sweep interval.
func (rt *Router) SweepNow() {
	rt.sweepOnce()
}

// sweepOnce is one round. Rounds are serialised: the ticker and
// SweepNow callers queue behind each other on the sweep mutex.
func (rt *Router) sweepOnce() {
	rt.sweepMu.Lock()
	defer rt.sweepMu.Unlock()

	_, span := rt.tracer.StartSpan(context.Background(), "cluster.sweep")
	defer span.End()
	trace := span.TraceID()

	ms := rt.memberList()
	var live []*member
	for _, m := range ms {
		if m.Alive() {
			live = append(live, m)
		}
	}
	allAlive := len(live) == len(ms)
	if len(live) == 0 {
		span.Fail("no live members")
		return
	}

	// Layer inventory: union of base layers across live nodes. Tombstone
	// shadow layers reveal layers whose every live tile was deleted.
	layerSet := map[string]bool{}
	for _, m := range live {
		var layers []string
		if err := rt.aeJSON(trace, span, m, "/v1/layers", &layers); err != nil {
			continue
		}
		for _, l := range layers {
			switch {
			case isHintLayer(l):
			case storage.IsInternalLayer(l):
				layerSet[l[len(storage.TombLayerPrefix):]] = true
			default:
				layerSet[l] = true
			}
		}
	}
	layers := make([]string, 0, len(layerSet))
	for l := range layerSet {
		layers = append(layers, l)
	}
	sort.Strings(layers)

	for _, layer := range layers {
		rt.sweepLayer(trace, span, live, allAlive, layer)
	}
	rt.gcPass(trace, span)
	rt.stats.aeRounds.Inc()
	rt.noteSweepRound(time.Now())
	rt.event(eventlog.TypeSweepRound, "",
		fmt.Sprintf("%d layers over %d/%d live nodes", len(layers), len(live), len(ms)), trace)
}

// sweepLayer diffs one layer's digests against the previous round and
// reconciles every suspect bucket.
func (rt *Router) sweepLayer(trace string, span *obs.Span, live []*member, allAlive bool, layer string) {
	// Rebuild the GC ledger from shard state: markers written by a
	// previous router (or re-propagated by sync) must stay accounted, or
	// they would never be collected after a router crash.
	for _, m := range live {
		var tombs []storage.DigestEntry
		if err := rt.aeJSON(trace, span, m, "/v1/digest/"+url.PathEscape(layer)+"?tombs=1", &tombs); err != nil {
			continue
		}
		for _, e := range tombs {
			key := storage.TileKey{Layer: layer, TX: e.TX, TY: e.TY}
			if rt.ledger.record(key, ledgerEntry{Clock: e.Clock, Created: e.Created, TTLSeconds: e.TTLSeconds}) {
				rt.stats.tombstonesWritten.Inc()
			}
		}
	}

	// Per-node bucket vectors. A node whose digest fetch fails drops out
	// of this round: its buckets cannot be verified, so nothing is
	// marked clean.
	cur := map[int]map[string]string{}
	complete := true
	for _, m := range live {
		var d storage.LayerDigest
		if err := rt.aeJSON(trace, span, m, "/v1/digest/"+url.PathEscape(layer), &d); err != nil {
			complete = false
			continue
		}
		for b, bd := range d.Buckets {
			if cur[b] == nil {
				cur[b] = map[string]string{}
			}
			cur[b][m.node.Name] = strconv.Itoa(bd.Count) + ":" + bd.Digest
		}
	}

	prev := rt.ae.prev[layer]
	clean := rt.ae.clean[layer]
	newClean := make(map[int]bool, storage.DigestBuckets)
	for b := 0; b < storage.DigestBuckets; b++ {
		rt.stats.aeRangesDiffed.Inc()
		if prev != nil && clean[b] && allAlive && sameDigests(cur[b], prev[b]) {
			// Verified converged last round and nothing moved since.
			newClean[b] = true
			continue
		}
		rt.stats.aeRangeMismatches.Inc()
		synced, ok := rt.inspectBucket(trace, span, live, layer, b)
		// Converged only if every leaf fetch succeeded, no key needed a
		// sync, and no member was missing from the comparison.
		newClean[b] = ok && synced == 0 && allAlive && complete
	}
	rt.ae.prev[layer] = cur
	rt.ae.clean[layer] = newClean
}

// inspectBucket fetches one bucket's leaf tuples from every live node
// and reconciles each key whose live owners disagree. Returns the
// number of keys synced and whether the inspection saw every node.
func (rt *Router) inspectBucket(trace string, span *obs.Span, live []*member, layer string, bucket int) (int, bool) {
	type meta struct {
		e  storage.DigestEntry
		ok bool
	}
	perNode := map[string][]storage.DigestEntry{}
	complete := true
	for _, m := range live {
		var entries []storage.DigestEntry
		path := "/v1/digest/" + url.PathEscape(layer) + "?bucket=" + strconv.Itoa(bucket)
		if err := rt.aeJSON(trace, span, m, path, &entries); err != nil {
			complete = false
			continue
		}
		perNode[m.node.Name] = entries
	}

	type coord struct{ tx, ty int32 }
	byKey := map[coord]map[string]meta{}
	for node, entries := range perNode {
		for _, e := range entries {
			c := coord{e.TX, e.TY}
			if byKey[c] == nil {
				byKey[c] = map[string]meta{}
			}
			byKey[c][node] = meta{e: e, ok: true}
		}
	}
	coords := make([]coord, 0, len(byKey))
	for c := range byKey {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(i, j int) bool {
		if coords[i].tx != coords[j].tx {
			return coords[i].tx < coords[j].tx
		}
		return coords[i].ty < coords[j].ty
	})

	synced := 0
	for _, c := range coords {
		holders := byKey[c]
		key := storage.TileKey{Layer: layer, TX: c.tx, TY: c.ty}

		// The winner by digest metadata: clock first, tombstone beats
		// live on a tie, CRC as the deterministic final tiebreak.
		var winNode string
		var win meta
		for node, h := range holders {
			if !win.ok || digestFresher(h.e, win.e) {
				win, winNode = h, node
			}
		}

		// Diverged when any live owner is missing the winner or holds a
		// different version. Non-owner copies (keys that moved on a ring
		// change) are left alone: they stop mattering once the real
		// owners converge, and the winner search above still sees them.
		owners := rt.ownersFor(key)
		diverged := false
		winnerOnOwner := false
		for _, o := range owners {
			if !o.Alive() {
				continue
			}
			// Only nodes that answered the leaf fetch can vote; an owner
			// that answered with nothing holds nothing.
			if _, answered := perNode[o.node.Name]; !answered {
				continue
			}
			h, has := holders[o.node.Name]
			if has && h.e.Clock == win.e.Clock && h.e.Sum == win.e.Sum && h.e.Tomb == win.e.Tomb {
				winnerOnOwner = true
			} else {
				diverged = true
			}
		}
		if !diverged {
			continue
		}
		source := ""
		if !winnerOnOwner {
			source = winNode
		}
		rt.stats.aeKeysSynced.Inc()
		rt.syncKey(trace, span, key, source)
		synced++
	}
	return synced, complete
}

// digestFresher orders two digest tuples the same way
// storage.FresherState orders full replica states, using the CRC as the
// byte-level tiebreak (identical bytes hash identically, so equal CRCs
// mean already-converged and never need a winner).
func digestFresher(a, b storage.DigestEntry) bool {
	if a.Clock != b.Clock {
		return a.Clock > b.Clock
	}
	if a.Tomb != b.Tomb {
		return a.Tomb
	}
	return a.Sum > b.Sum
}

// syncKey reconciles one key: re-read every live owner (plus, when the
// suspected winner lives on a non-owner, that node as a read-only
// source), pick the winner by the cluster's total order over real
// bytes, and conditionally write it to each lagging owner. The expect
// precondition means a concurrent fresher write makes the shard answer
// 412 and the sync steps aside — sweeps can never roll a key back.
func (rt *Router) syncKey(trace string, span *obs.Span, key storage.TileKey, source string) {
	leg := span.StartChild("sweep.sync")
	leg.SetAttr("layer", key.Layer)
	defer leg.End()

	owners := rt.ownersFor(key)
	var legs []legResult
	for _, m := range owners {
		if !m.Alive() {
			continue
		}
		ctx, cancel := rt.legContext(context.Background())
		res := rt.shardRead(ctx, trace, leg, m, key, true)
		cancel()
		legs = append(legs, res)
	}
	if source != "" {
		rt.mu.RLock()
		src := rt.members[source]
		rt.mu.RUnlock()
		isOwner := false
		for _, o := range owners {
			if o == src {
				isOwner = true
			}
		}
		if src != nil && !isOwner && src.Alive() {
			ctx, cancel := rt.legContext(context.Background())
			res := rt.shardRead(ctx, trace, leg, src, key, true)
			cancel()
			if res.ok && res.st.Present() {
				legs = append(legs, res)
			}
		}
	}

	// Every leg carries its bytes, so ranking them reads nothing more.
	winner := rt.winnerOf(trace, leg, key, legs, false)
	if winner == nil {
		rt.stats.aeRepairsSkipped.Inc()
		leg.Fail("no winner readable")
		return
	}

	ownerSet := map[*member]bool{}
	for _, o := range owners {
		ownerSet[o] = true
	}
	for i := range legs {
		l := &legs[i]
		if !ownerSet[l.m] || l.m == winner.m {
			continue
		}
		if l.ok && l.st.Tomb == winner.st.Tomb && bytes.Equal(l.data, winner.data) {
			continue // already converged
		}
		if !l.ok && !l.integrity {
			rt.stats.aeRepairsSkipped.Inc()
			continue // unreachable mid-sweep; next round retries
		}
		expect := ""
		if !l.integrity {
			expect = l.st.String()
		}
		ctx, cancel := rt.legContext(context.Background())
		err := rt.shardPut(ctx, trace, leg, l.m, key, winner.data, winner.st.Sum, expect)
		cancel()
		if err != nil {
			rt.stats.aeRepairsSkipped.Inc()
			continue
		}
		rt.stats.aeRepairsDone.Inc()
		rt.stats.shardRepairs.With(l.m.node.Name).Inc()
	}
}

// gcPass reclaims tombstones whose job is provably finished. A marker
// may be deleted only when (1) its TTL expired, (2) no hint for the key
// is still parked, (3) every ring owner is alive and holds this exact
// marker. Until then it must survive: the marker is the only thing
// standing between a revived stale replica and a resurrected delete.
// Reclamation itself is conditional (expect tomb:<clock>), so a
// concurrent re-delete or fresher write aborts the collection.
func (rt *Router) gcPass(trace string, span *obs.Span) {
	snap := rt.ledger.snapshot()
	if len(snap) == 0 {
		return
	}
	now := uint64(time.Now().Unix())
	for key, e := range snap {
		if e.Created+e.TTLSeconds > now {
			continue // TTL not expired
		}
		if rt.hints.pendingForKey(key) {
			continue // a parked write/delete for this key is still in flight
		}
		owners := rt.ownersFor(key)
		allAlive := len(owners) > 0
		for _, o := range owners {
			if !o.Alive() {
				allAlive = false
			}
		}
		if !allAlive {
			continue // a dead owner might still revive with stale state
		}

		leg := span.StartChild("sweep.gc")
		leg.SetAttr("layer", key.Layer)
		allHold := true
		allAbsent := true
		superseded := false
		readable := true
		for _, o := range owners {
			ctx, cancel := rt.legContext(context.Background())
			res := rt.shardRead(ctx, trace, leg, o, key, false)
			cancel()
			if !res.ok {
				readable = false
				break
			}
			if res.st.Clock > e.Clock {
				superseded = true
			}
			if res.st.Present() {
				allAbsent = false
			}
			if !res.st.Tomb || res.st.Clock != e.Clock {
				allHold = false
			}
		}
		switch {
		case !readable:
			// Can't prove anything this round.
		case superseded:
			// A fresher write or re-delete owns the key now; this ledger
			// entry's marker is history. complete() is clock-guarded, so a
			// re-delete that already refreshed the entry keeps it pending.
			if rt.ledger.complete(key, e.Clock) {
				rt.stats.tombstonesReclaimed.Inc()
			}
		case allAbsent:
			// Every owner already forgot the key — a previous GC deleted
			// the markers but crashed before retiring the ledger entry.
			if rt.ledger.complete(key, e.Clock) {
				rt.stats.tombstonesReclaimed.Inc()
			}
		case !allHold:
			// Some owner still lacks the marker: not safe. The digest pass
			// re-propagates it; collect on a later round.
		default:
			collected := true
			expect := storage.ReplicaState{Tomb: true, Clock: e.Clock}.String()
			for _, o := range owners {
				ctx, cancel := rt.legContext(context.Background())
				err := rt.shardDelete(ctx, trace, leg, o, key, expect)
				cancel()
				if err != nil {
					// 412 = the owner's state moved under us; anything else
					// = unreachable. Abort; the marker stays pending and
					// partially-collected owners are re-seeded by the next
					// digest pass.
					collected = false
					break
				}
			}
			if collected && rt.ledger.complete(key, e.Clock) {
				rt.stats.tombstonesReclaimed.Inc()
			}
		}
		leg.End()
	}
}

// aeJSON fetches one node's JSON endpoint under a fresh leg span and
// timeout, for sweep use outside any client request.
func (rt *Router) aeJSON(trace string, span *obs.Span, m *member, path string, v any) error {
	leg := span.StartChild("sweep.fetch")
	leg.SetAttr("node", m.node.Name)
	ctx, cancel := rt.legContext(context.Background())
	err := rt.shardJSON(ctx, trace, leg, m, path, v)
	cancel()
	if err != nil {
		leg.Fail(err.Error())
	}
	leg.End()
	return err
}

// sameDigests reports whether two node->digest maps are identical.
func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
