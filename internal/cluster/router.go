package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/incident"
	"hdmaps/internal/obs/notify"
	"hdmaps/internal/obs/slo"
	"hdmaps/internal/obs/timeseries"
	"hdmaps/internal/storage"
)

// Node identifies one tile-server backend: a stable name (the ring
// identity, also the metric label) and its HTTP base URL.
type Node struct {
	Name string
	Base string
}

// Config configures a Router. Zero fields take the defaults documented
// on each resolver below.
type Config struct {
	// Nodes is the initial membership. Names must be unique, non-empty,
	// and valid metric label values ([a-z0-9_]+).
	Nodes []Node
	// Replicas is the owner-set size R per tile (default 3, clamped to
	// the member count).
	Replicas int
	// ReadQuorum / WriteQuorum are the answers required before a read
	// responds or a write acks (default R/2+1 each). A write quorum is
	// sloppy: a hint successfully parked for a dead owner counts.
	ReadQuorum  int
	WriteQuorum int
	// VNodes is the virtual-node count per member (default
	// DefaultVNodes).
	VNodes int
	// ShardTimeout bounds each per-node leg request (default 5s).
	ShardTimeout time.Duration
	// RetryAfter is the hint on shed (503) responses (default 1s).
	RetryAfter time.Duration
	// ProbeInterval / ProbeTimeout drive the failure detector (defaults
	// 250ms / 1s). FailAfter is the consecutive-strike threshold that
	// marks a node down (default 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
	// MaxHints bounds the in-memory hinted-handoff buffer (default
	// 4096 hints); MaxRepairQueue bounds the read-repair queue (default
	// 256).
	MaxHints       int
	MaxRepairQueue int
	// MaxTileBytes bounds accepted PUT bodies (default 16 MiB, matching
	// storage.TileServer).
	MaxTileBytes int64
	// SweepInterval is the anti-entropy sweep cadence (default 30s;
	// negative disables background sweeping — SweepNow still works).
	SweepInterval time.Duration
	// TombstoneTTL is the minimum deletion-marker age before GC may
	// reclaim it (default 24h). It must exceed the hint-drain/repair
	// horizon — see the GC safety argument in DESIGN.md §11.
	TombstoneTTL time.Duration
	// SampleInterval is the observability-plane cadence: registry
	// sampling, fleet federation scrapes, and SLO evaluation all run on
	// this tick (default 5s; negative disables the whole plane —
	// /fleetz and /alertz answer 404).
	SampleInterval time.Duration
	// SampleHistory is the ring capacity of every time series, in ticks
	// (default 360 — half an hour at the default interval).
	SampleHistory int
	// MaxFleetNodes bounds the per-node series cardinality in the
	// federated view; nodes beyond it collapse into one reserved
	// "other" pseudo-node (default 16).
	MaxFleetNodes int
	// SLOFastWindow / SLOSlowWindow are the burn-rate windows (defaults
	// 5m / 1h, resolved by the SLO engine). SLOObjectives overrides the
	// shipped objective set when non-nil.
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	SLOObjectives []slo.Objective
	// EventLog, when set, is the shared journal the router emits
	// lifecycle events into (embedding processes pass the same journal
	// to ingest/resilience so /eventz is one cluster-wide timeline).
	// When nil and the plane is enabled, the router builds a private
	// journal over the full standard domain — durable at EventLogPath
	// if that is set, memory-only otherwise. EventLogCapacity bounds
	// the ring (default 1024).
	EventLog         *eventlog.Log
	EventLogPath     string
	EventLogCapacity int
	// NotifySinks, when non-empty, enables push alerting: every alert
	// transition fans out to each sink with retry, dedup, and flap
	// damping (NotifyMinHold, default 1m — see notify.Config.MinHold).
	NotifySinks   []notify.Sink
	NotifyMinHold time.Duration
	// IncidentWindow is the causal look-back for incident timelines
	// (default 2m — see incident.Config.Window).
	IncidentWindow time.Duration
	// Transport, when set, is used for all node requests — the chaos
	// tests inject per-host fault transports here.
	Transport http.RoundTripper
	// Registry receives the router's counters (default: a private
	// registry). Tracer receives request spans (default: a tracer with
	// Metrics on the same registry). Logger defaults to a no-op.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Logger   *slog.Logger
}

// replicasFor clamps the configured replication factor to the given
// membership size. Callers pass *current* membership, not the initial
// cfg.Nodes list: a cluster started below its target factor regains
// the full factor (and the quorums derived from it) as AddNode grows
// the ring.
func (c *Config) replicasFor(members int) int {
	r := c.Replicas
	if r <= 0 {
		r = 3
	}
	if r > members {
		r = members
	}
	return r
}

func (c *Config) readQuorumFor(replicas int) int {
	if c.ReadQuorum > 0 {
		return c.ReadQuorum
	}
	return replicas/2 + 1
}

func (c *Config) writeQuorumFor(replicas int) int {
	if c.WriteQuorum > 0 {
		return c.WriteQuorum
	}
	return replicas/2 + 1
}

func (c *Config) shardTimeout() time.Duration {
	if c.ShardTimeout > 0 {
		return c.ShardTimeout
	}
	return 5 * time.Second
}

func (c *Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}

func (c *Config) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 250 * time.Millisecond
}

func (c *Config) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return time.Second
}

func (c *Config) failAfter() int {
	if c.FailAfter > 0 {
		return c.FailAfter
	}
	return 2
}

func (c *Config) maxTileBytes() int64 {
	if c.MaxTileBytes > 0 {
		return c.MaxTileBytes
	}
	return 16 << 20
}

func (c *Config) maxRepairQueue() int {
	if c.MaxRepairQueue > 0 {
		return c.MaxRepairQueue
	}
	return 256
}

func (c *Config) sweepInterval() time.Duration {
	if c.SweepInterval < 0 {
		return 0 // disabled
	}
	if c.SweepInterval == 0 {
		return 30 * time.Second
	}
	return c.SweepInterval
}

func (c *Config) tombstoneTTL() time.Duration {
	if c.TombstoneTTL > 0 {
		return c.TombstoneTTL
	}
	return 24 * time.Hour
}

// Router fronts a fleet of tile servers as one origin: it routes every
// tile key to its R ring owners, reads at quorum with background
// read-repair, replicates writes with hinted handoff for dead owners,
// and exports the same /statz /metricz /tracez surface as a single
// node. It implements http.Handler for the storage /v1 API plus the
// meta endpoints.
type Router struct {
	cfg    Config
	log    *slog.Logger
	tracer *obs.Tracer
	reg    *obs.Registry
	httpc  *http.Client
	stats  *stats
	hints  *hintBuffer

	mu      sync.RWMutex
	ring    *Ring
	members map[string]*member

	ledger *tombstoneLedger
	// sweepMu serialises anti-entropy rounds (ticker vs SweepNow); ae is
	// only touched under it.
	sweepMu sync.Mutex
	ae      *aeState

	// Observability plane (nil when disabled): per-request latency
	// histogram, registry sampler, fleet federation, SLO engine, and
	// the anti-entropy freshness gauge fed from lastSweep (unix ms).
	// obsMu serialises observability rounds (obsLoop ticker vs
	// ObserveNow) — the sampler is not safe for concurrent sampling.
	obsMu     sync.Mutex
	latency   *obs.Histogram
	sampler   *timeseries.Sampler
	fleet     *fleet
	sloEng    *slo.Engine
	aeAge     *obs.Gauge
	lastSweep atomic.Int64
	// bodyTurn rotates which live owner a read asks for the tile bytes.
	bodyTurn atomic.Uint64
	// Active plane (nil when disabled): the event journal (/eventz),
	// incident manager (/incidentz), and push notifier. ownJournal
	// marks a journal the router built itself and must close.
	journal    *eventlog.Log
	ownJournal bool
	incidents  *incident.Manager
	notifier   *notify.Notifier

	repairCh chan repairJob
	stop     chan struct{}
	// closeMu serialises goBG against Close so bg.Add never races
	// bg.Wait: once draining is set under the lock, no new background
	// goroutine can start.
	closeMu  sync.Mutex
	bg       sync.WaitGroup
	started  atomic.Bool
	draining atomic.Bool
}

// repairJob asks the repair worker to bring one replica up to the
// winner observed by a quorum read. The winner may be known only by
// state (a probe answered it); the worker then reads its bytes from
// win.m when it runs. (Sweep-found divergences are reconciled inline by
// the sweeper via syncKey, not queued here.)
type repairJob struct {
	m       *member
	key     storage.TileKey
	win     legResult
	damaged bool // the target served damaged bytes
}

// NewRouter validates cfg and builds a stopped router; call Start to
// launch the failure detector and repair worker.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	names := make([]string, 0, len(cfg.Nodes))
	members := make(map[string]*member, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.Base == "" {
			return nil, fmt.Errorf("cluster: node needs name and base: %+v", n)
		}
		if err := obs.ValidateLabelValue(n.Name); err != nil {
			return nil, fmt.Errorf("cluster: node name %q: %w", n.Name, err)
		}
		if _, dup := members[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		n.Base = strings.TrimRight(n.Base, "/")
		// Nodes start optimistically alive; the first probe round
		// corrects any that are already dead.
		members[n.Name] = &member{node: n, alive: true}
		names = append(names, n.Name)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(obs.TracerConfig{Metrics: reg})
	}
	rt := &Router{
		cfg:      cfg,
		log:      obs.OrNop(cfg.Logger),
		tracer:   tracer,
		reg:      reg,
		stats:    newStats(reg, names),
		hints:    newHintBuffer(cfg.MaxHints),
		ring:     NewRing(names, cfg.VNodes),
		members:  members,
		ledger:   newTombstoneLedger(),
		ae:       newAEState(),
		repairCh: make(chan repairJob, cfg.maxRepairQueue()),
		stop:     make(chan struct{}),
	}
	rt.httpc = &http.Client{Transport: cfg.Transport}
	rt.latency = reg.Histogram("cluster.router.latency_seconds", nil)
	if err := rt.buildObservability(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Registry exposes the router's metric registry (for /metricz mounting
// or test assertions).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Tracer exposes the router's tracer.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// Stats reads the router counters plus live hint/drain state.
func (rt *Router) Stats() StatsSnapshot {
	s := rt.stats.snapshot()
	s.HintsPending = rt.hints.pending()
	s.TombstonesPending = rt.ledger.pending()
	s.Draining = rt.draining.Load()
	return s
}

// Start launches the failure detector, the repair worker, the
// anti-entropy sweeper, and a one-shot recovery scan that rebuilds the
// hint buffer from durable parked copies a previous router left on the
// nodes' disks.
func (rt *Router) Start() {
	if !rt.started.CompareAndSwap(false, true) {
		return
	}
	rt.bg.Add(2)
	go rt.probeLoop()
	go rt.repairLoop()
	if iv := rt.cfg.sweepInterval(); iv > 0 {
		rt.bg.Add(1)
		go rt.sweepLoop(iv)
	}
	if rt.sampler != nil {
		rt.bg.Add(1)
		go rt.obsLoop(rt.cfg.sampleInterval())
	}
	rt.goBG(rt.recoverDurableHints)
}

// Close stops background work and waits for in-flight drains, repairs,
// and read finishers. The router sheds new proxied requests while
// closing.
func (rt *Router) Close() {
	rt.closeMu.Lock()
	if !rt.draining.CompareAndSwap(false, true) {
		rt.closeMu.Unlock()
		return
	}
	rt.closeMu.Unlock()
	close(rt.stop)
	rt.bg.Wait()
	// Drop pooled shard connections, dialled-but-never-used ones included:
	// a node's http.Server.Shutdown waits five seconds on each of those.
	rt.httpc.CloseIdleConnections()
	// Quiesce the push plane after background work stops emitting:
	// Close drains every sink queue, so the delivery ledger balances
	// with pending at zero.
	if rt.notifier != nil {
		rt.notifier.Close()
	}
	if rt.ownJournal {
		_ = rt.journal.Close()
	}
}

// goBG runs fn on a tracked background goroutine, refusing once Close
// has begun (Close waits for everything started before it).
func (rt *Router) goBG(fn func()) bool {
	rt.closeMu.Lock()
	if rt.draining.Load() {
		rt.closeMu.Unlock()
		return false
	}
	rt.bg.Add(1)
	rt.closeMu.Unlock()
	go func() {
		defer rt.bg.Done()
		fn()
	}()
	return true
}

// memberList snapshots the membership for lock-free iteration.
func (rt *Router) memberList() []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node.Name < out[j].node.Name })
	return out
}

// AddNode joins a node to the ring: the membership map gains a member
// and the ring is swapped whole, so in-flight owner lookups see either
// the old or the new circle, never a partial one. Keys the new node
// now owns converge via read-repair. Joining an existing name replaces
// its base URL.
func (rt *Router) AddNode(n Node) error {
	if n.Name == "" || n.Base == "" {
		return fmt.Errorf("cluster: node needs name and base: %+v", n)
	}
	if err := obs.ValidateLabelValue(n.Name); err != nil {
		return fmt.Errorf("cluster: node name %q: %w", n.Name, err)
	}
	n.Base = strings.TrimRight(n.Base, "/")
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.members[n.Name] = &member{node: n, alive: true}
	rt.ring = rt.ring.WithNode(n.Name)
	rt.event(eventlog.TypeNodeJoin, n.Name, n.Base, "")
	return nil
}

// RemoveNode leaves a node from the ring. Its pending hints stay
// buffered (they are dropped only by eviction) but will never drain.
func (rt *Router) RemoveNode(name string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.members, name)
	rt.ring = rt.ring.WithoutNode(name)
	rt.event(eventlog.TypeNodeLeave, name, "", "")
}

// Ring snapshots the current ring.
func (rt *Router) Ring() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// replicas is the effective replication factor: the configured factor
// clamped to current membership under rt.mu.
func (rt *Router) replicas() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.cfg.replicasFor(len(rt.members))
}

// readQuorum / writeQuorum derive quorums from the effective (current
// membership) replication factor unless explicitly configured.
func (rt *Router) readQuorum() int  { return rt.cfg.readQuorumFor(rt.replicas()) }
func (rt *Router) writeQuorum() int { return rt.cfg.writeQuorumFor(rt.replicas()) }

// ownersFor resolves a key's owner set to live member handles (dead
// members included — callers decide whether to skip or hint).
func (rt *Router) ownersFor(key storage.TileKey) []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	names := rt.ring.Owners(key, rt.cfg.replicasFor(len(rt.members)))
	out := make([]*member, 0, len(names))
	for _, n := range names {
		if m := rt.members[n]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// fallbackFor finds the first live non-owner walking clockwise past a
// key's owner set — the node that holds durable hint copies for it.
func (rt *Router) fallbackFor(key storage.TileKey, owners []*member) *member {
	isOwner := make(map[string]bool, len(owners))
	for _, m := range owners {
		isOwner[m.node.Name] = true
	}
	rt.mu.RLock()
	ring, members := rt.ring, rt.members
	rt.mu.RUnlock()
	var fb *member
	ring.walk(key, func(node string) bool {
		if isOwner[node] {
			return true
		}
		if m := members[node]; m != nil && m.Alive() {
			fb = m
			return false
		}
		return true
	})
	return fb
}

// ---- HTTP surface ----------------------------------------------------

// ServeHTTP routes meta endpoints locally and proxies the /v1 tile API
// to the ring. Accounting invariant: every /v1 request increments
// Routed and exactly one of Served, Shed, Errored.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
		return
	case "/readyz":
		if rt.draining.Load() {
			w.Header().Set("Retry-After", rt.retryAfterValue())
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
		return
	case "/statz":
		rt.writeJSON(w, rt.Stats())
		return
	case "/clusterz":
		rt.writeJSON(w, rt.Status())
		return
	case "/metricz":
		obs.MetricsHandler(rt.reg).ServeHTTP(w, r)
		return
	case "/tracez":
		obs.TracezHandler(rt.tracer).ServeHTTP(w, r)
		return
	case "/fleetz":
		rt.handleFleetz(w, r)
		return
	case "/alertz":
		rt.handleAlertz(w, r)
		return
	case "/eventz":
		rt.handleEventz(w, r)
		return
	case "/incidentz":
		rt.handleIncidentz(w, r)
		return
	}
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		http.NotFound(w, r)
		return
	}

	rt.stats.routed.Inc()
	r, trace := obs.EnsureRequestTrace(r)
	w.Header().Set(obs.TraceHeader, trace)
	ctx := r.Context()
	if parent := obs.SanitizeTraceID(r.Header.Get(obs.SpanHeader)); parent != "" {
		ctx = obs.WithRemoteParent(ctx, parent)
	}
	ctx, span := rt.tracer.StartSpan(ctx, "router.request")
	span.SetAttr("method", r.Method)
	span.SetAttr("path", r.URL.Path)
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		span.EndWith(dur)
		// Exemplars only for tail-sampled traces, so the stamped trace ID
		// is always resolvable on /tracez.
		rt.latency.ObserveWithExemplar(dur.Seconds(), span.SampledTraceID())
	}()
	r = r.WithContext(ctx)

	if rt.draining.Load() {
		span.Fail("draining")
		rt.shed(w, span, "router draining")
		return
	}

	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "layers":
		if r.Method != http.MethodGet {
			rt.clientError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		rt.handleLayers(w, r, span)
	case len(parts) == 3 && parts[1] == "tiles":
		if r.Method != http.MethodGet {
			rt.clientError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		if !storage.ValidLayer(parts[2]) {
			rt.clientError(w, http.StatusBadRequest, storage.ErrBadLayer.Error())
			return
		}
		rt.handleList(w, r, span, parts[2])
	case len(parts) == 5 && parts[1] == "tiles":
		key, err := storage.ParseTileKey(parts[2], parts[3], parts[4])
		if err != nil {
			rt.clientError(w, http.StatusBadRequest, err.Error())
			return
		}
		if storage.IsInternalLayer(key.Layer) {
			// Handoff and tombstone layers are cluster-internal; clients
			// never address them through the router.
			rt.clientError(w, http.StatusNotFound, "tile not found")
			return
		}
		span.SetAttr("layer", key.Layer)
		switch r.Method {
		case http.MethodGet:
			rt.handleTileGet(w, r, span, key)
		case http.MethodPut:
			rt.handleTilePut(w, r, span, key)
		case http.MethodDelete:
			rt.handleTileDelete(w, r, span, key)
		default:
			rt.clientError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	default:
		rt.clientError(w, http.StatusNotFound, "not found")
	}
}

func (rt *Router) retryAfterValue() string {
	secs := int(rt.cfg.retryAfter().Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// shed refuses a request for lack of quorum: 503 + Retry-After,
// counted in Shed. Shed responses force-sample their trace so /tracez
// always has the evidence.
func (rt *Router) shed(w http.ResponseWriter, span *obs.Span, msg string) {
	span.ForceSample()
	rt.stats.shed.Inc()
	w.Header().Set("Retry-After", rt.retryAfterValue())
	rt.writeJSONErrorRaw(w, http.StatusServiceUnavailable, msg)
}

// clientError answers a malformed or unroutable request definitively
// (4xx), counted in Served — the router did its job.
func (rt *Router) clientError(w http.ResponseWriter, status int, msg string) {
	rt.stats.served.Inc()
	rt.writeJSONErrorRaw(w, status, msg)
}

// internalError counts a router-side failure.
func (rt *Router) internalError(w http.ResponseWriter, span *obs.Span, msg string) {
	span.Fail(msg)
	rt.stats.errored.Inc()
	rt.writeJSONErrorRaw(w, http.StatusInternalServerError, msg)
}

func (rt *Router) writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		rt.writeJSONErrorRaw(w, http.StatusInternalServerError, err.Error())
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(storage.ChecksumHeader, storage.Checksum(data))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// writeJSONErrorRaw mirrors the tile-server error shape ({"error",
// "trace_id"}) so clients see one protocol whether they hit a node or
// the router.
func (rt *Router) writeJSONErrorRaw(w http.ResponseWriter, status int, msg string) {
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

// ClusterStatus is the /clusterz document: membership health, ring
// shape, quorum parameters, and handoff state in one read.
type ClusterStatus struct {
	Replicas    int            `json:"replicas"`
	ReadQuorum  int            `json:"read_quorum"`
	WriteQuorum int            `json:"write_quorum"`
	VNodes      int            `json:"vnodes"`
	Members     []MemberStatus `json:"members"`
	HintsByNode map[string]int `json:"hints_by_node,omitempty"`
	// Tombstones is the pending-deletion ledger: markers written but not
	// yet garbage-collected, sorted by key.
	Tombstones []TombstoneStatus `json:"tombstones,omitempty"`
	Stats      StatsSnapshot     `json:"stats"`
}

// TombstoneStatus is one pending deletion marker in /clusterz.
type TombstoneStatus struct {
	Layer      string `json:"layer"`
	TX         int32  `json:"tx"`
	TY         int32  `json:"ty"`
	Clock      uint64 `json:"clock"`
	Created    uint64 `json:"created"`
	TTLSeconds uint64 `json:"ttl"`
}

// Status assembles the /clusterz document.
func (rt *Router) Status() ClusterStatus {
	ms := rt.memberList()
	out := ClusterStatus{
		Replicas:    rt.replicas(),
		ReadQuorum:  rt.readQuorum(),
		WriteQuorum: rt.writeQuorum(),
		VNodes:      rt.Ring().vnodes,
		Members:     make([]MemberStatus, 0, len(ms)),
		HintsByNode: rt.hints.pendingByTarget(),
		Tombstones:  rt.tombstoneStatus(),
		Stats:       rt.Stats(),
	}
	for _, m := range ms {
		out.Members = append(out.Members, m.status())
	}
	return out
}

func (rt *Router) tombstoneStatus() []TombstoneStatus {
	snap := rt.ledger.snapshot()
	out := make([]TombstoneStatus, 0, len(snap))
	for k, e := range snap {
		out = append(out, TombstoneStatus{
			Layer: k.Layer, TX: k.TX, TY: k.TY,
			Clock: e.Clock, Created: e.Created, TTLSeconds: e.TTLSeconds,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.TX != b.TX {
			return a.TX < b.TX
		}
		return a.TY < b.TY
	})
	return out
}

// ---- shard legs ------------------------------------------------------

// legResult is one replica's answer to a read. A body leg (GET) carries
// the payload it verified; a probe (HEAD) carries only the state the
// shard keeps for the key.
type legResult struct {
	m         *member
	ok        bool // definitive answer: live tile, tombstone, or authoritative miss
	st        storage.ReplicaState
	data      []byte // tile or marker bytes; nil on a probe and on a miss
	integrity bool   // reachable but served damaged bytes — repairable
	errMsg    string
}

// Semantic (non-error) write outcomes: the shard answered, ordered the
// write, and refused it deliberately. Neither strikes the failure
// detector nor counts as a shard error.
var (
	// errSuperseded is a 409: the write is ordered below the replica's
	// current state (a stale replay losing to a tombstone, or an
	// obsolete tombstone losing to a newer tile). The write is
	// accepted-and-immediately-superseded in LWW terms.
	errSuperseded = errors.New("cluster: write superseded by fresher state")
	// errPrecondition is a 412: the ExpectHeader precondition failed —
	// the replica's state moved between observation and write.
	errPrecondition = errors.New("cluster: write precondition failed")
)

func (rt *Router) tileURL(base string, key storage.TileKey) string {
	return fmt.Sprintf("%s/v1/tiles/%s/%d/%d", base, url.PathEscape(key.Layer), key.TX, key.TY)
}

// legContext detaches a shard leg from the client request: a read
// finisher keeps collecting answers for repair after the response is
// written, so legs must not die with the handler. Trace identity is
// carried over explicitly.
func (rt *Router) legContext(ctx context.Context) (context.Context, context.CancelFunc) {
	detached := obs.WithTraceID(context.Background(), obs.TraceID(ctx))
	return context.WithTimeout(detached, rt.cfg.shardTimeout())
}

// legHeaders stamps trace propagation headers on a shard request: the
// trace ID plus the leg's span ID, so the node-side server span nests
// under this exact leg in /tracez.
func legHeaders(req *http.Request, trace string, leg *obs.Span) {
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	if id := leg.IDHex(); id != "" {
		req.Header.Set(obs.SpanHeader, id)
	}
}

// shardRead asks one replica for a key and classifies the answer. With
// body it is a GET whose payload is verified against the shard's
// checksum and the tile size limit; without, a HEAD that moves only the
// (clock, crc) state the shard keeps. Transport errors strike the
// failure detector; damaged payloads are flagged for repair.
func (rt *Router) shardRead(ctx context.Context, trace string, leg *obs.Span, m *member, key storage.TileKey, body bool) legResult {
	res := legResult{m: m}
	method := http.MethodHead
	if body {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.tileURL(m.node.Base, key), nil)
	if err != nil {
		res.errMsg = err.Error()
		return res
	}
	legHeaders(req, trace, leg)
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rt.noteFailure(m, err.Error())
		rt.stats.shardErrors.With(m.node.Name).Inc()
		res.errMsg = err.Error()
		return res
	}
	defer func() { _ = resp.Body.Close() }()
	live := resp.StatusCode == http.StatusOK
	if !live && resp.StatusCode != http.StatusNotFound {
		rt.stats.shardErrors.With(m.node.Name).Inc()
		res.errMsg = "status " + resp.Status
		return res
	}
	sum := resp.Header.Get(storage.ChecksumHeader)
	if !body {
		var st storage.ReplicaState // a bare 404 is an authoritative miss, as on a GET
		if v := resp.Header.Get(storage.StateHeader); v != "" || live {
			st, err = storage.ParseReplicaState(v)
		}
		if err != nil || st.Found != live {
			rt.stats.shardErrors.With(m.node.Name).Inc()
			res.errMsg = "unreadable probe answer"
			return res
		}
		if st.Tomb {
			st.Sum = sum // the marker's checksum rides its own header
		}
		res.ok, res.st = true, st
		return res
	}
	if !live && resp.Header.Get(storage.TombstoneHeader) == "" {
		res.ok = true // an authoritative miss is a valid quorum answer
		return res
	}
	damaged := func(msg string) legResult {
		rt.stats.integrityFailures.Inc()
		res.integrity, res.errMsg = true, msg
		return res
	}
	data, err := storage.ReadBody(resp.Body, resp.ContentLength, rt.cfg.maxTileBytes())
	switch {
	case errors.Is(err, storage.ErrBodyTooLarge):
		// Never truncate: a cut body would pass the header-only clock peek.
		return damaged(err.Error())
	case err != nil:
		rt.noteFailure(m, err.Error())
		rt.stats.shardErrors.With(m.node.Name).Inc()
		res.errMsg = err.Error()
		return res
	case sum == "":
		sum = storage.Checksum(data)
	case !storage.ChecksumMatches(sum, data):
		return damaged("checksum mismatch")
	}
	st := storage.ReplicaState{Sum: sum}
	if clock, err := storage.PeekClock(data); live && err == nil {
		st.Found, st.Clock = true, clock
	} else if ts, derr := storage.DecodeTombstone(data); derr == nil {
		// A 404's deletion marker — or, on a 200, a parked marker read
		// back from a hint layer (hint layers store payloads raw).
		st.Tomb, st.Clock = true, ts.Clock
	} else if live {
		return damaged("unreadable tile: " + err.Error())
	} else {
		return damaged("unreadable tombstone")
	}
	res.ok, res.st, res.data = true, st, data
	return res
}

// shardPut writes one replica (2xx is success). A non-empty expect is
// sent as the conditional-write precondition; 412 and 409 come back as
// errPrecondition/errSuperseded — semantic outcomes the shard decided
// deliberately, not shard failures.
func (rt *Router) shardPut(ctx context.Context, trace string, leg *obs.Span, m *member, key storage.TileKey, data []byte, sum, expect string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, rt.tileURL(m.node.Base, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	legHeaders(req, trace, leg)
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(storage.ChecksumHeader, sum)
	if expect != "" {
		req.Header.Set(storage.ExpectHeader, expect)
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rt.noteFailure(m, err.Error())
		rt.stats.shardErrors.With(m.node.Name).Inc()
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		return errSuperseded
	case resp.StatusCode == http.StatusPreconditionFailed:
		return errPrecondition
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		rt.stats.shardErrors.With(m.node.Name).Inc()
		return errors.New("status " + resp.Status)
	}
	return nil
}

// shardDelete deletes one replica; a 404 counts as success (already
// gone). A non-empty expect makes the delete conditional (412 =>
// errPrecondition) — tombstone GC uses this to reclaim exactly the
// marker it observed.
func (rt *Router) shardDelete(ctx context.Context, trace string, leg *obs.Span, m *member, key storage.TileKey, expect string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, rt.tileURL(m.node.Base, key), nil)
	if err != nil {
		return err
	}
	legHeaders(req, trace, leg)
	if expect != "" {
		req.Header.Set(storage.ExpectHeader, expect)
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rt.noteFailure(m, err.Error())
		rt.stats.shardErrors.With(m.node.Name).Inc()
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusPreconditionFailed {
		return errPrecondition
	}
	if resp.StatusCode != http.StatusNotFound && (resp.StatusCode < 200 || resp.StatusCode >= 300) {
		rt.stats.shardErrors.With(m.node.Name).Inc()
		return errors.New("status " + resp.Status)
	}
	return nil
}

// The cluster's total order over replica states is
// storage.FresherState: clock first, tombstone beats live on a tie,
// payload bytes as final tiebreak. It is deterministic, so every
// quorum read, repair, and sweep picks the same winner and replicas
// converge byte-identical — including agreeing on deletions.

// ---- read path -------------------------------------------------------

// handleTileGet reads at quorum for the price of one body: one live
// owner (rotating per read, so each replica's bytes at rest are still
// verified by 1/R of the reads that touch it) is asked for the tile,
// the others only for their state. The answer waits for a read quorum
// of definitive answers and for the body leg, and is the FresherState
// winner of the owners that answered — a second body is read only when
// a probe beats, or cannot be ordered against, the body in hand.
func (rt *Router) handleTileGet(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey) {
	rt.stats.reads.Inc()
	owners := rt.ownersFor(key)
	if len(owners) == 0 {
		rt.internalError(w, span, "no owners for key")
		return
	}
	trace := obs.TraceID(r.Context())
	need := rt.readQuorum()
	if need > len(owners) {
		need = len(owners)
	}
	span.SetAttrInt("owners", int64(len(owners)))

	var bodyOwner *member
	turn := int(rt.bodyTurn.Add(1) % uint64(len(owners)))
	for i := range owners {
		if m := owners[(turn+i)%len(owners)]; m.Alive() {
			bodyOwner = m
			break
		}
	}
	results := rt.readLegs(r, span, key, owners, bodyOwner)

	all := make([]legResult, 0, len(owners))
	for len(all) < len(owners) {
		res := <-results
		all = append(all, res)
		if res.m == bodyOwner {
			bodyOwner = nil // reported
		}
		if bodyOwner != nil || answered(all) < need {
			continue
		}
		win := rt.winnerOf(trace, span, key, all, true)
		if answered(all) < need {
			continue // a second-body read failed: that owner no longer counts
		}
		if win != nil && win.st.Found {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(storage.ChecksumHeader, win.st.Sum)
			w.Header().Set("Content-Length", strconv.Itoa(len(win.data)))
			_, _ = w.Write(win.data)
		} else {
			// Absent and tombstoned both read as 404 to clients; the
			// marker is cluster machinery, not payload.
			rt.writeJSONErrorRaw(w, http.StatusNotFound, "tile not found")
		}
		rt.stats.served.Inc()
		// Remaining legs finish in the background purely to feed
		// read-repair; the client is already answered.
		if remaining := len(owners) - len(all); remaining > 0 &&
			rt.goBG(func() { rt.finishRead(trace, key, results, all, remaining) }) {
			return
		}
		rt.scheduleRepairs(trace, key, all)
		return
	}
	rt.stats.quorumFailures.Inc()
	span.Fail("read quorum failed")
	rt.shed(w, span, fmt.Sprintf("read quorum failed: %d/%d answers", answered(all), need))
	rt.scheduleRepairs(trace, key, all)
}

// readLegs asks every owner for key concurrently — bodyOwner for the
// payload, the rest for their state — and returns the channel their
// len(owners) answers arrive on. A known-dead owner cannot contribute to
// a quorum; its leg fails instantly instead of burning ShardTimeout.
func (rt *Router) readLegs(r *http.Request, span *obs.Span, key storage.TileKey, owners []*member, bodyOwner *member) chan legResult {
	trace := obs.TraceID(r.Context())
	results := make(chan legResult, len(owners))
	for _, m := range owners {
		if !m.Alive() {
			results <- legResult{m: m, errMsg: "node down"}
			continue
		}
		// Child spans are started sequentially here (the parent span is
		// goroutine-owned); each leg goroutine then owns its child.
		leg := span.StartChild("shard.read")
		leg.SetAttr("node", m.node.Name)
		rt.stats.shardRouted.With(m.node.Name).Inc()
		go func(m *member, leg *obs.Span) {
			ctx, cancel := rt.legContext(r.Context())
			defer cancel()
			res := rt.shardRead(ctx, trace, leg, m, key, m == bodyOwner)
			if res.errMsg != "" {
				leg.Fail(res.errMsg)
			}
			leg.End()
			results <- res
		}(m, leg)
	}
	return results
}

// answered counts the legs that gave a definitive answer.
func answered(legs []legResult) (n int) {
	for i := range legs {
		if legs[i].ok {
			n++
		}
	}
	return n
}

// winnerOf picks the freshest present state among the legs that
// answered; nil when none holds anything. States order by
// ReplicaState.Compare; two the states cannot order (same kind and
// clock, different checksum) are ordered by their bytes, as FresherState
// does, which costs the bodies not yet in hand. With needBody a live
// winner known only by state gets its body read too. A leg whose body
// is read is replaced by that answer — its replica may have moved on or
// gone — and the scan starts over; every restart follows a leg gaining
// bytes or dropping out, so it ends.
func (rt *Router) winnerOf(trace string, span *obs.Span, key storage.TileKey, legs []legResult, needBody bool) *legResult {
scan:
	var win *legResult
	for i := range legs {
		l := &legs[i]
		if !l.ok || !l.st.Present() {
			continue
		}
		if win == nil {
			win = l
			continue
		}
		c, ordered := l.st.Compare(win.st)
		if !ordered {
			for _, u := range []*legResult{l, win} {
				if u.data == nil {
					rt.fill(trace, span, key, u, legs)
					goto scan
				}
			}
			c = bytes.Compare(l.data, win.data)
		}
		if c > 0 {
			win = l
		}
	}
	if needBody && win != nil && win.st.Found && win.data == nil {
		rt.fill(trace, span, key, win, legs)
		goto scan
	}
	return win
}

// fill gives l the payload its state names: borrowed from a leg that
// reported the identical state, else read from l's own replica, whose
// answer then replaces *l.
func (rt *Router) fill(trace string, span *obs.Span, key storage.TileKey, l *legResult, legs []legResult) {
	for i := range legs {
		if o := &legs[i]; o.ok && o.data != nil && o.st == l.st {
			l.data = o.data
			return
		}
	}
	leg := span.StartChild("shard.read")
	leg.SetAttr("node", l.m.node.Name)
	rt.stats.shardRouted.With(l.m.node.Name).Inc()
	ctx, cancel := rt.legContext(context.Background())
	*l = rt.shardRead(ctx, trace, leg, l.m, key, true)
	cancel()
	if l.errMsg != "" {
		leg.Fail(l.errMsg)
	}
	leg.End()
}

// finishRead drains the leftover legs of an already-answered read and
// feeds the full result set to read-repair, using the freshest replica
// seen anywhere (which may be newer than the one served).
func (rt *Router) finishRead(trace string, key storage.TileKey, results chan legResult, all []legResult, remaining int) {
	for i := 0; i < remaining; i++ {
		select {
		case res := <-results:
			all = append(all, res)
		case <-rt.stop:
			return
		}
	}
	rt.scheduleRepairs(trace, key, all)
}

// scheduleRepairs compares every leg's state against the winner's and
// queues a repair for each stale, missing, or damaged replica that is
// still reachable. Unreachable replicas are the hinted-handoff path's
// problem, not read-repair's. An absent replica is stale even where the
// winner is a tombstone: markers propagate to every owner so absences
// converge too, and GC reclaims them only once all owners hold one.
func (rt *Router) scheduleRepairs(trace string, key storage.TileKey, legs []legResult) {
	win := rt.winnerOf(trace, nil, key, legs, false)
	if win == nil {
		return
	}
	for i := range legs {
		l := &legs[i]
		switch {
		case l.m == win.m, !l.ok && !l.integrity, l.ok && l.st == win.st:
			continue // the winner; unreachable (hints cover it); identical
		case l.ok:
			rt.stats.staleReads.Inc()
		}
		select {
		case rt.repairCh <- repairJob{m: l.m, key: key, win: *win, damaged: l.integrity}:
			rt.stats.repairsScheduled.Inc()
		default:
			rt.stats.repairsDropped.Inc()
		}
	}
}

// repairLoop is the read-repair worker: it re-checks the target's
// current version (another repair or a direct write may have landed
// first) and writes the winner only if the target is still behind.
func (rt *Router) repairLoop() {
	defer rt.bg.Done()
	for {
		select {
		case <-rt.stop:
			return
		case job := <-rt.repairCh:
			rt.repair(job)
		}
	}
}

func (rt *Router) repair(job repairJob) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.shardTimeout())
	defer cancel()
	_, span := rt.tracer.StartSpan(ctx, "cluster.repair")
	span.SetAttr("node", job.m.node.Name)
	span.SetAttr("layer", job.key.Layer)
	defer span.End()
	trace := span.TraceID()
	// A target that served damaged bytes is re-read whole: its state
	// alone would vouch for bytes it no longer has.
	cur, win, wins := rt.contest(ctx, trace, span, job.m, job.key, job.win, job.damaged)
	if !cur.ok && !cur.integrity {
		// Target unreachable — the hint path owns convergence now.
		rt.stats.repairsSkipped.Inc()
		span.Fail("target unreachable")
		return
	}
	if !wins {
		rt.stats.repairsSkipped.Inc()
		return
	}
	if win.data == nil {
		// The read that queued this knew the winner only by state.
		rt.fill(trace, span, job.key, &win, nil)
		if !win.ok || win.st != job.win.st {
			rt.stats.repairsSkipped.Inc() // the winner moved on; the next read re-decides
			return
		}
	}
	// The write is conditional on the state just probed: if anything
	// lands on the replica between this check and the PUT, the shard
	// answers 412 and the repair steps aside instead of overwriting the
	// fresher write — the read-then-overwrite race is closed at the
	// shard, not by hoping the queue is fast.
	expect := ""
	if !cur.integrity {
		expect = cur.st.String()
	}
	if err := rt.shardPut(ctx, trace, span, job.m, job.key, win.data, win.st.Sum, expect); err != nil {
		rt.stats.repairsSkipped.Inc()
		if !errors.Is(err, errPrecondition) && !errors.Is(err, errSuperseded) {
			span.Fail(err.Error())
		}
		return
	}
	rt.stats.repairsDone.Inc()
	rt.stats.shardRepairs.With(job.m.node.Name).Inc()
}

// contest reads m's current state for key (its bytes too, with body)
// and ranks cand — a state, with its bytes when in hand — against it:
// wins is true only when cand is strictly fresher, so whoever asks
// writes nothing the replica already has or has passed. A probed state
// costs a body only if it ties cand's on everything but the checksum.
// Both legs come back as ranked.
func (rt *Router) contest(ctx context.Context, trace string, span *obs.Span, m *member, key storage.TileKey, cand legResult, body bool) (cur, win legResult, wins bool) {
	legs := []legResult{rt.shardRead(ctx, trace, span, m, key, body), cand}
	wins = rt.winnerOf(trace, span, key, legs, false) == &legs[1]
	return legs[0], legs[1], wins
}

// ---- write path ------------------------------------------------------

func (rt *Router) handleTilePut(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey) {
	rt.stats.writes.Inc()
	data, err := storage.ReadBody(r.Body, r.ContentLength, rt.cfg.maxTileBytes())
	if errors.Is(err, storage.ErrBodyTooLarge) {
		rt.clientError(w, http.StatusRequestEntityTooLarge, "tile too large")
		return
	}
	if err != nil {
		rt.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	sum := storage.Checksum(data) // hex once, for the leg and hint headers
	if want := r.Header.Get(storage.ChecksumHeader); want != "" && !storage.ChecksumMatches(want, data) {
		w.Header().Set(storage.TransientHeader, "checksum-mismatch")
		rt.clientError(w, http.StatusBadRequest,
			fmt.Sprintf("checksum mismatch: got %s want %s", sum, want))
		return
	}
	clock, err := storage.PeekClock(data)
	if err != nil {
		// The router refuses what every node would refuse, without
		// burning R legs on it.
		rt.clientError(w, http.StatusUnprocessableEntity, "invalid tile: "+err.Error())
		return
	}

	owners := rt.ownersFor(key)
	if len(owners) == 0 {
		rt.internalError(w, span, "no owners for key")
		return
	}
	need := rt.writeQuorum()
	if need > len(owners) {
		need = len(owners)
	}

	acked, hinted := rt.replicate(r, span, owners, hint{Key: key, Data: data, Clock: clock, Sum: sum})
	span.SetAttrInt("acked", int64(acked))
	span.SetAttrInt("hinted", int64(hinted))
	if acked+hinted < need {
		rt.stats.quorumFailures.Inc()
		span.Fail("write quorum failed")
		rt.shed(w, span, fmt.Sprintf("write quorum failed: %d acks + %d hints < %d", acked, hinted, need))
		return
	}
	rt.stats.served.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// replicate writes one payload — a tile, or a deletion marker, which
// replicates exactly like one — to every owner: live owners get a leg,
// dead or failing ones a hint built from h. A shard's 409 acks too: it
// ordered the write below fresher state it holds — accepted-and-
// immediately-superseded is a completed write under last-writer-wins,
// not a failure. Sloppy quorum: a durably parked hint is a promise the
// write will reach its owner, so callers count hinted toward the write
// quorum — this is what keeps writes available while a replica is dead.
func (rt *Router) replicate(r *http.Request, span *obs.Span, owners []*member, h hint) (acked, hinted int) {
	trace := obs.TraceID(r.Context())
	type outcome struct {
		m   *member
		err error
	}
	results := make(chan outcome, len(owners))
	inflight := 0
	var toHint []*member
	for _, m := range owners {
		if !m.Alive() {
			toHint = append(toHint, m)
			continue
		}
		leg := span.StartChild("shard.write")
		leg.SetAttr("node", m.node.Name)
		rt.stats.shardRouted.With(m.node.Name).Inc()
		inflight++
		go func(m *member, leg *obs.Span) {
			ctx, cancel := rt.legContext(r.Context())
			defer cancel()
			err := rt.shardPut(ctx, trace, leg, m, h.Key, h.Data, h.Sum, "")
			if err != nil {
				leg.Fail(err.Error())
			}
			leg.End()
			results <- outcome{m: m, err: err}
		}(m, leg)
	}
	for i := 0; i < inflight; i++ {
		if out := <-results; out.err == nil || errors.Is(out.err, errSuperseded) {
			acked++
		} else {
			toHint = append(toHint, out.m)
		}
	}
	for _, m := range toHint {
		hc := h
		hc.Target = m.node.Name
		if rt.queueHint(r.Context(), trace, span, &hc, owners) {
			hinted++
		}
	}
	return acked, hinted
}

// handleTileDelete makes a delete as durable as a write: instead of
// issuing bare DELETEs (which a dead owner would simply miss), the
// router writes a tombstone marker to every owner. The marker's clock
// dominates every version observable on live owners, so replays of
// erased writes lose to it; dead owners get durable tombstone hints
// parked on a fallback node's disk, so the delete survives even a
// router crash while the owner is down.
func (rt *Router) handleTileDelete(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey) {
	rt.stats.writes.Inc()
	owners := rt.ownersFor(key)
	if len(owners) == 0 {
		rt.internalError(w, span, "no owners for key")
		return
	}
	need := rt.writeQuorum()
	if need > len(owners) {
		need = len(owners)
	}

	// Phase 1: observe the highest clock among reachable owners, so the
	// marker is stamped above everything the delete must erase.
	clockCh := rt.readLegs(r, span, key, owners, nil)
	var maxClock uint64
	okProbes := 0
	for range owners {
		if res := <-clockCh; res.ok {
			okProbes++
			maxClock = max(maxClock, res.st.Clock)
		}
	}
	// The marker's clock is only trustworthy if a read quorum answered
	// definitively: with fewer, the stamp could land below a version an
	// unreachable owner holds, and the delete would ack 204 yet erase
	// nothing. Shed instead — the client retries when owners recover.
	probeNeed := rt.readQuorum()
	if probeNeed > len(owners) {
		probeNeed = len(owners)
	}
	if okProbes < probeNeed {
		rt.stats.quorumFailures.Inc()
		span.Fail("delete probe quorum failed")
		rt.shed(w, span, fmt.Sprintf("delete probe quorum failed: %d definitive answers from %d owners, need %d",
			okProbes, len(owners), probeNeed))
		return
	}

	ts := storage.Tombstone{
		Layer: key.Layer, TX: key.TX, TY: key.TY,
		Clock:      maxClock + 1,
		Created:    uint64(time.Now().Unix()),
		TTLSeconds: uint64(rt.cfg.tombstoneTTL() / time.Second),
	}
	// Built once: every owner receives byte-identical marker bytes.
	marker := storage.EncodeTombstone(ts)

	// Phase 2: replicate the marker exactly like a write. A 409 here means
	// a write newer than phase 1 observed landed in between; the delete is
	// ordered before it and erased nothing — still a completed delete.
	acked, hinted := rt.replicate(r, span, owners, hint{Key: key, Data: marker, Tomb: true, Clock: ts.Clock, Sum: storage.Checksum(marker)})
	if acked+hinted < need {
		rt.stats.quorumFailures.Inc()
		span.Fail("delete quorum failed")
		rt.shed(w, span, fmt.Sprintf("delete quorum failed: %d acks + %d hints < %d", acked, hinted, need))
		return
	}
	if rt.ledger.record(key, ledgerEntry{Clock: ts.Clock, Created: ts.Created, TTLSeconds: ts.TTLSeconds}) {
		rt.stats.tombstonesWritten.Inc()
	}
	rt.stats.served.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// ---- hinted handoff --------------------------------------------------

// queueHint parks a write its owner missed: indexed in the router's
// bounded buffer, plus (for PUT hints) a durable copy on the first live
// fallback node under a hint-- layer. Returns false when the buffer is
// full — that leg is then simply failed, never silently dropped.
func (rt *Router) queueHint(ctx context.Context, trace string, span *obs.Span, h *hint, owners []*member) bool {
	if h.Data != nil {
		if fb := rt.fallbackFor(h.Key, owners); fb != nil {
			hk := storage.TileKey{Layer: hintLayer(h.Target, h.Key.Layer), TX: h.Key.TX, TY: h.Key.TY}
			leg := span.StartChild("shard.hint")
			leg.SetAttr("node", fb.node.Name)
			leg.SetAttr("target", h.Target)
			legCtx, cancel := rt.legContext(ctx)
			err := rt.shardPut(legCtx, trace, leg, fb, hk, h.Data, h.Sum, "")
			cancel()
			if err != nil {
				leg.Fail(err.Error())
			} else {
				h.Fallback = fb.node.Name
			}
			leg.End()
		}
	}
	switch rt.hints.add(h) {
	case hintAdded:
		rt.stats.hintsQueued.Inc()
	case hintReplaced:
		// The superseded hint will never replay — its write is subsumed
		// by this newer one. Counted so queued == drained + superseded +
		// dropped + pending stays exact.
		rt.stats.hintsQueued.Inc()
		rt.stats.hintsSuperseded.Inc()
	case hintFull:
		rt.stats.hintsDropped.Inc()
		return false
	}
	rt.stats.shardHinted.With(h.Target).Inc()
	return true
}

// startDrainHints replays everything a recovered node missed. One
// drain per target at a time; the probe loop re-triggers if hints
// remain (drain aborted by a re-kill) or arrive later.
func (rt *Router) startDrainHints(m *member) {
	if !m.beginDrain() {
		return
	}
	if !rt.goBG(func() {
		defer m.endDrain()
		rt.drainHints(m)
	}) {
		m.endDrain()
	}
}

func (rt *Router) drainHints(m *member) {
	batch := rt.hints.take(m.node.Name)
	if len(batch) == 0 {
		return
	}
	// Deterministic replay order for debuggability.
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i].Key, batch[j].Key
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.TX != b.TX {
			return a.TX < b.TX
		}
		return a.TY < b.TY
	})
	rt.log.Warn("draining hints", "node", m.node.Name, "count", len(batch))
	for i, h := range batch {
		select {
		case <-rt.stop:
			rt.restoreHints(batch[i:])
			return
		default:
		}
		if err := rt.replayHint(m, h); err != nil {
			// Target likely died again: put the rest back and let the
			// next up-transition resume.
			rt.log.Warn("hint replay failed", "node", m.node.Name, "error", err.Error())
			rt.restoreHints(batch[i:])
			return
		}
		rt.stats.hintsDrained.Inc()
		rt.stats.shardDrained.With(m.node.Name).Inc()
	}
	rt.log.Warn("hints drained", "node", m.node.Name, "count", len(batch))
	rt.event(eventlog.TypeHintDrain, m.node.Name, fmt.Sprintf("%d hints replayed", len(batch)), "")
}

// replayHint delivers one parked write to its recovered owner, unless
// the owner already has something fresher (a read-repair or a direct
// write got there first). On success the durable fallback copy is
// deleted best-effort.
func (rt *Router) replayHint(m *member, h *hint) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.shardTimeout())
	defer cancel()
	_, span := rt.tracer.StartSpan(ctx, "cluster.handoff")
	span.SetAttr("node", m.node.Name)
	span.SetAttr("layer", h.Key.Layer)
	defer span.End()
	trace := span.TraceID()
	if h.Data == nil {
		// Legacy memory-only delete hint (pre-tombstone); replay as a bare
		// delete since there is no marker to deliver.
		if err := rt.shardDelete(ctx, trace, span, m, h.Key, ""); err != nil {
			span.Fail(err.Error())
			return err
		}
		return nil
	}
	if h.Tomb {
		// Tombstone markers carry their own ordering: the shard accepts,
		// no-ops (older than existing marker), or rejects with 409 (a
		// fresher live tile landed) — all of which complete the hint.
		if err := rt.shardPut(ctx, trace, span, m, h.Key, h.Data, h.Sum, ""); err != nil && !errors.Is(err, errSuperseded) {
			span.Fail(err.Error())
			return err
		}
	} else {
		cur, _, wins := rt.contest(ctx, trace, span, m, h.Key, legResult{
			ok: true, st: storage.ReplicaState{Found: true, Clock: h.Clock, Sum: h.Sum}, data: h.Data}, false)
		if !cur.ok && !cur.integrity {
			span.Fail(cur.errMsg)
			return errors.New(cur.errMsg)
		}
		if wins {
			if err := rt.shardPut(ctx, trace, span, m, h.Key, h.Data, h.Sum, ""); err != nil && !errors.Is(err, errSuperseded) {
				span.Fail(err.Error())
				return err
			}
		}
	}
	if h.Fallback != "" {
		rt.mu.RLock()
		fb := rt.members[h.Fallback]
		rt.mu.RUnlock()
		if fb != nil {
			hk := storage.TileKey{Layer: hintLayer(h.Target, h.Key.Layer), TX: h.Key.TX, TY: h.Key.TY}
			_ = rt.shardDelete(ctx, trace, span, fb, hk, "")
		}
	}
	return nil
}

// restoreHints puts an unfinished drain batch back without recounting
// it as queued; a hint that raced a newer write for the same key is
// dropped as superseded.
func (rt *Router) restoreHints(batch []*hint) {
	for _, h := range batch {
		switch rt.hints.restore(h) {
		case hintAdded:
		case hintReplaced:
			rt.stats.hintsSuperseded.Inc()
		case hintFull:
			rt.stats.hintsDropped.Inc()
		}
	}
}

// recoverDurableHints rebuilds the in-memory hint buffer from payloads
// parked on fallback nodes' disks under hint-- layers. A fresh router
// over the same nodes (crash restart, failover) runs this once on
// Start, so parked writes — and parked deletes — survive the router
// process. Unreachable fallbacks are skipped; the sweeper converges
// whatever recovery misses.
func (rt *Router) recoverDurableHints() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.shardTimeout()*4)
	defer cancel()
	_, span := rt.tracer.StartSpan(ctx, "cluster.hint_recovery")
	defer span.End()
	trace := span.TraceID()
	recovered := 0
	type entry struct {
		TX int32 `json:"tx"`
		TY int32 `json:"ty"`
	}
	for _, fb := range rt.memberList() {
		if !fb.Alive() {
			continue
		}
		var layers []string
		leg := span.StartChild("shard.layers")
		leg.SetAttr("node", fb.node.Name)
		lctx, lcancel := rt.legContext(ctx)
		err := rt.shardJSON(lctx, trace, leg, fb, "/v1/layers", &layers)
		lcancel()
		if err != nil {
			leg.Fail(err.Error())
		}
		leg.End()
		if err != nil {
			continue
		}
		for _, hl := range layers {
			target, origLayer, ok := parseHintLayer(hl)
			if !ok {
				continue
			}
			var keys []entry
			leg := span.StartChild("shard.list")
			leg.SetAttr("node", fb.node.Name)
			lctx, lcancel := rt.legContext(ctx)
			err := rt.shardJSON(lctx, trace, leg, fb, "/v1/tiles/"+url.PathEscape(hl), &keys)
			lcancel()
			if err != nil {
				leg.Fail(err.Error())
			}
			leg.End()
			if err != nil {
				continue
			}
			for _, e := range keys {
				hk := storage.TileKey{Layer: hl, TX: e.TX, TY: e.TY}
				leg := span.StartChild("shard.read")
				leg.SetAttr("node", fb.node.Name)
				lctx, lcancel := rt.legContext(ctx)
				res := rt.shardRead(lctx, trace, leg, fb, hk, true)
				lcancel()
				if res.errMsg != "" {
					leg.Fail(res.errMsg)
				}
				leg.End()
				if !res.ok || !res.st.Present() {
					continue
				}
				h := &hint{
					Target:   target,
					Fallback: fb.node.Name,
					Key:      storage.TileKey{Layer: origLayer, TX: e.TX, TY: e.TY},
					Data:     res.data,
					Tomb:     res.st.Tomb,
					Clock:    res.st.Clock,
					Sum:      res.st.Sum,
				}
				if rt.hints.restore(h) == hintAdded {
					rt.stats.hintsQueued.Inc()
					rt.stats.hintsRecovered.Inc()
					rt.stats.shardHinted.With(target).Inc()
					recovered++
				}
			}
		}
	}
	if recovered > 0 {
		rt.log.Warn("recovered durable hints", "count", recovered)
	}
}

// ---- merged listings -------------------------------------------------

// gather fetches one JSON list endpoint from every live node and returns
// the lists of the nodes that answered — none means no node is reachable.
func gather[T any](rt *Router, r *http.Request, span *obs.Span, op, path string) (lists [][]T) {
	trace := obs.TraceID(r.Context())
	type listOut struct {
		list []T
		err  error
	}
	ms := rt.memberList()
	results := make(chan listOut, len(ms))
	inflight := 0
	for _, m := range ms {
		if !m.Alive() {
			continue
		}
		leg := span.StartChild(op)
		leg.SetAttr("node", m.node.Name)
		inflight++
		go func(m *member, leg *obs.Span) {
			ctx, cancel := rt.legContext(r.Context())
			defer cancel()
			var out []T
			err := rt.shardJSON(ctx, trace, leg, m, path, &out)
			if err != nil {
				leg.Fail(err.Error())
			}
			leg.End()
			results <- listOut{list: out, err: err}
		}(m, leg)
	}
	for i := 0; i < inflight; i++ {
		if res := <-results; res.err == nil {
			lists = append(lists, res.list)
		}
	}
	return lists
}

// handleLayers merges /v1/layers across all live nodes, hiding
// cluster-internal hint layers. One reachable node suffices; zero is a
// shed.
func (rt *Router) handleLayers(w http.ResponseWriter, r *http.Request, span *obs.Span) {
	rt.stats.reads.Inc()
	lists := gather[string](rt, r, span, "shard.layers", "/v1/layers")
	if len(lists) == 0 {
		span.Fail("no node answered layers")
		rt.shed(w, span, "no node reachable")
		return
	}
	seen := map[string]bool{}
	merged := []string{}
	for _, list := range lists {
		for _, l := range list {
			if !storage.IsInternalLayer(l) && !seen[l] {
				seen[l] = true
				merged = append(merged, l)
			}
		}
	}
	sort.Strings(merged)
	rt.stats.served.Inc()
	rt.writeJSON(w, merged)
}

// handleList merges a layer's tile listing across all live nodes; a
// bbox window is validated here and filtered at the shards, and state=1
// is forwarded, which makes the answer a manifest: each key with the
// freshest state any shard listed it in (mergeManifests).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request, span *obs.Span, layer string) {
	rt.stats.reads.Inc()
	if storage.IsInternalLayer(layer) {
		rt.clientError(w, http.StatusNotFound, "not found")
		return
	}
	q := r.URL.Query()
	var query []string
	if v := q.Get("bbox"); v != "" {
		win, err := storage.ParseTileWindow(v)
		if err != nil {
			rt.clientError(w, http.StatusBadRequest, err.Error())
			return
		}
		query = append(query, "bbox="+win.String())
	}
	if q.Get("state") == "1" {
		query = append(query, "state=1")
	}
	path := "/v1/tiles/" + url.PathEscape(layer)
	if len(query) > 0 {
		path += "?" + strings.Join(query, "&")
	}
	lists := gather[storage.ManifestEntry](rt, r, span, "shard.list", path)
	if len(lists) == 0 {
		span.Fail("no node answered list")
		rt.shed(w, span, "no node reachable")
		return
	}
	rt.stats.served.Inc()
	rt.writeJSON(w, mergeManifests(lists))
}

// mergeManifests lists every key some shard listed, once, ordered by
// (TX, TY), under the state a read of all those shards would answer
// with: states order by ReplicaState.Compare, as the read's winnerOf
// orders them, and the freshest wins. A key whose winner is a deletion
// marker is not listed. A key is listed without a state — its reader
// fetches it — when only the payload bytes could name the winner (same
// kind and clock, different checksums) and when a shard listed it with
// no state a shard can hold: that shard may have the freshest copy.
// Plain listings carry no state at all, and merge to their union.
func mergeManifests(lists [][]storage.ManifestEntry) []storage.ManifestEntry {
	type coord struct{ tx, ty int32 }
	type best struct {
		st      storage.ReplicaState
		unknown bool // some shard's state is not known, or a tie is not broken
	}
	byKey := map[coord]best{}
	for _, list := range lists {
		for _, e := range list {
			k := coord{e.TX, e.TY}
			st, ok := e.ReplicaState()
			b, seen := byKey[k]
			switch {
			case !seen:
				b = best{st: st, unknown: !ok}
			case !ok:
				b = best{unknown: true}
			case b.st.Present(): // else a stateless listing stays one
				if c, ordered := st.Compare(b.st); !ordered {
					b.unknown = true
				} else if c > 0 {
					b = best{st: st}
				}
			}
			byKey[k] = b
		}
	}
	merged := make([]storage.ManifestEntry, 0, len(byKey))
	for k, b := range byKey {
		switch {
		case b.st.Tomb: // two markers of one clock tie, and the key is deleted either way
		case b.unknown:
			merged = append(merged, storage.ManifestEntry{TX: k.tx, TY: k.ty})
		default:
			merged = append(merged, storage.ManifestEntry{TX: k.tx, TY: k.ty, State: b.st.String()})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].TX != merged[j].TX {
			return merged[i].TX < merged[j].TX
		}
		return merged[i].TY < merged[j].TY
	})
	return merged
}

// shardJSON fetches one node's JSON metadata endpoint.
func (rt *Router) shardJSON(ctx context.Context, trace string, leg *obs.Span, m *member, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.node.Base+path, nil)
	if err != nil {
		return err
	}
	legHeaders(req, trace, leg)
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rt.noteFailure(m, err.Error())
		rt.stats.shardErrors.With(m.node.Name).Inc()
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		rt.stats.shardErrors.With(m.node.Name).Inc()
		return errors.New("status " + resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, rt.cfg.maxTileBytes())).Decode(v)
}
