package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/incremental"
)

// Service errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("ingest: service closed")
	// ErrNoBase is returned when the version store holds no base
	// version to maintain.
	ErrNoBase = errors.New("ingest: version store has no base version")
)

// PublishConfig wires committed versions into the distribution stack:
// every committed (or rolled-back-to) version is re-tiled and written
// to the tile store under Layer. Publishing is best-effort — a flaky
// tile store degrades distribution, never ingestion — and failures are
// counted in Metrics.PublishErrors.
type PublishConfig struct {
	Store storage.TileStore
	Layer string
	Tiler storage.Tiler
}

// Config tunes the ingestion service.
type Config struct {
	// Workers is the pipeline worker count (default 4).
	Workers int
	// QueueDepth bounds the ingestion queue; a full queue drops with
	// accounting instead of blocking (default 64).
	QueueDepth int
	// MaxAge is the logical-time freshness window: a report older than
	// the high-water stamp by more than MaxAge is stale (default 100).
	MaxAge uint64
	// FutureSkew rejects reports stamped implausibly far beyond the
	// high-water mark (default 10×MaxAge).
	FutureSkew uint64
	// ByzantineResidual is the median-residual threshold (metres) above
	// which a report is quarantined as Byzantine; ≤0 disables (default
	// 25).
	ByzantineResidual float64
	// CommitEvery commits a new version after this many accepted
	// reports (default 16).
	CommitEvery int
	// QuarantineCap bounds the inspectable quarantine ring (default
	// 256).
	QuarantineCap int
	// Fuser tunes the underlying incremental fusion pipeline.
	Fuser incremental.Config
	// Breaker tunes the per-source circuit breakers.
	Breaker BreakerConfig
	// Publish, when set, pushes committed versions to a tile store.
	Publish *PublishConfig
	// ApplyHook, when set, runs inside the pipeline stage for every
	// report just before it is fused — the instrumentation point chaos
	// tests use to inject stage panics.
	ApplyHook func(Report)
	// Metrics is the registry the service's counters, stage-duration
	// histograms, and breaker gauge register in (obs.Default() when
	// nil). Tests asserting exact counts inject a fresh registry.
	Metrics *obs.Registry
	// Tracer, when set, records an "ingest.report" span per submitted
	// report with one child per pipeline stage (validate → screen →
	// fuse → commit → publish). Stage spans end with the exact duration
	// observed into the stage histograms, so the two views can never
	// disagree. Rejected reports fail the root span, which tail
	// sampling then keeps.
	Tracer *obs.Tracer
	// Log receives structured quarantine/commit records; nil discards.
	Log *slog.Logger
	// Events, when set, receives cluster-journal entries for the
	// service's state transitions: commit-gate rejections, rollbacks,
	// and per-source breaker trips/closes. Typically the router's
	// journal (Router.EventLog) so ingest faults land on the same
	// /eventz timeline as node deaths and alert edges; nil discards.
	Events *eventlog.Log
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxAge == 0 {
		c.MaxAge = 100
	}
	if c.FutureSkew == 0 {
		c.FutureSkew = 10 * c.MaxAge
	}
	if c.ByzantineResidual == 0 {
		c.ByzantineResidual = 25
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 16
	}
}

// Metrics is a point-in-time accounting snapshot. After Close (queue
// drained), Submitted == Accepted + QuarantineTotal: every submitted
// report is either applied or accounted to a rejection reason.
type Metrics struct {
	Submitted, Accepted uint64
	// Quarantined holds per-reason rejection counters (the taxonomy:
	// malformed / stale / duplicate / byzantine / shed / overload /
	// panic).
	Quarantined     map[Reason]uint64
	QuarantineTotal uint64
	// Commits / CommitsRejected / Rollbacks count version-store
	// transitions; Published / PublishErrors count tile pushes.
	Commits, CommitsRejected, Rollbacks uint64
	Published, PublishErrors            uint64
	// DroppedObservations counts malformed observations the fuser
	// dropped inside otherwise-valid reports.
	DroppedObservations uint64
	// OpenBreakers lists sources currently shedding.
	OpenBreakers []string
	// CurrentVersion is the served version's sequence number.
	CurrentVersion int
}

// Service is the supervised ingestion front door: it validates and
// quarantines reports, sheds abusive sources, fuses accepted reports
// into a working map on a panic-isolated worker pool, and periodically
// commits the working map through the gate into the version store.
type Service struct {
	cfg   Config
	store *VersionStore
	quar  *Quarantine
	pool  *pool

	mu          sync.Mutex // guards working/fuser/seen/highWater/sinceCommit/pub
	working     *core.Map
	fuser       *incremental.Fuser
	seen        map[string]map[uint64]struct{}
	highWater   uint64
	sinceCommit int
	droppedObs  uint64 // DroppedInvalid from retired fusers
	// pub remembers what this service put in the publish layer, so that
	// a publish writes only the tiles a version changed; nil when
	// nothing is published. The first publish writes them all.
	pub *storage.Publisher

	brMu     sync.Mutex
	breakers map[string]*Breaker

	closed    atomic.Bool
	submitted atomic.Uint64
	accepted  atomic.Uint64
	commits   atomic.Uint64
	rejected  atomic.Uint64 // commit gate rejections
	rollbacks atomic.Uint64
	published atomic.Uint64
	pubErrs   atomic.Uint64

	log    *slog.Logger
	om     serviceMetrics
	tracer *obs.Tracer
	events *eventlog.Log
}

// serviceMetrics are the registry-side instruments. Counters mirror
// the atomic accounting (both views read identically at quiescence);
// the stage histograms and breaker gauge exist only here.
type serviceMetrics struct {
	submitted *obs.Counter
	accepted  *obs.Counter
	// quarantine partitions rejections by Reason — same taxonomy as
	// Metrics.Quarantined.
	quarantine *obs.CounterVec
	// stage times the pipeline stages: validate (structural checks in
	// Submit), screen (Byzantine residual), fuse (observe into the
	// working map), commit (gate + version store), publish (re-tile to
	// the tile store).
	stage *obs.HistogramVec
	// breakerOpen is the number of sources currently shedding; sampled
	// on each Metrics() call rather than maintained per Record, so the
	// hot path never walks the breaker map.
	breakerOpen *obs.Gauge
	commits     *obs.Counter
	rollbacks   *obs.Counter
	published   *obs.Counter
	publishErrs *obs.Counter
}

func newServiceMetrics(reg *obs.Registry) serviceMetrics {
	return serviceMetrics{
		submitted: reg.Counter("ingest.report.submitted"),
		accepted:  reg.Counter("ingest.report.accepted"),
		quarantine: reg.CounterVec("ingest.quarantine.reason",
			[]string{"malformed", "stale", "duplicate", "byzantine", "shed", "overload", "panic"}),
		stage: reg.HistogramVec("ingest.stage.duration_seconds", nil,
			[]string{"validate", "screen", "fuse", "commit", "publish"}),
		breakerOpen: reg.Gauge("ingest.breaker.open"),
		commits:     reg.Counter("ingest.version.commits"),
		rollbacks:   reg.Counter("ingest.version.rollbacks"),
		published:   reg.Counter("ingest.publish.ok"),
		publishErrs: reg.Counter("ingest.publish.errors"),
	}
}

// NewService supervises the version store's current map. The store
// must already hold a base version (commit one first).
func NewService(store *VersionStore, cfg Config) (*Service, error) {
	cfg.defaults()
	if store.CurrentSeq() == 0 {
		return nil, ErrNoBase
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{
		cfg:      cfg,
		store:    store,
		quar:     NewQuarantine(cfg.QuarantineCap),
		seen:     make(map[string]map[uint64]struct{}),
		breakers: make(map[string]*Breaker),
		log:      obs.OrNop(cfg.Log),
		om:       newServiceMetrics(reg),
		tracer:   cfg.Tracer,
		events:   cfg.Events,
	}
	if p := cfg.Publish; p != nil && p.Store != nil {
		s.pub = storage.NewPublisher(p.Tiler, p.Store, p.Layer)
	}
	if err := s.resetWorking(); err != nil {
		return nil, err
	}
	s.highWater = s.working.Clock
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.process, s.onPanic)
	return s, nil
}

// resetWorking replaces the working map with a clone of the current
// version and restarts the fuser on it. Callers hold s.mu (or are the
// constructor).
func (s *Service) resetWorking() error {
	if s.fuser != nil {
		s.droppedObs += uint64(s.fuser.DroppedInvalid)
	}
	s.working = s.store.Current()
	if s.working == nil {
		return ErrNoBase
	}
	f, err := incremental.NewFuser(s.working, s.cfg.Fuser)
	if err != nil {
		return err
	}
	s.fuser = f
	s.sinceCommit = 0
	return nil
}

// breaker returns (creating if needed) the source's circuit breaker.
func (s *Service) breaker(source string) *Breaker {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	b, ok := s.breakers[source]
	if !ok {
		bcfg := s.cfg.Breaker
		bcfg.OnStateChange = func(from, to BreakerState) {
			s.breakerEvent(source, from, to)
		}
		b = NewBreaker(bcfg)
		s.breakers[source] = b
	}
	return b
}

// reportCtx builds a context carrying the report's trace ID so the
// service's log records join with the uploading client's.
func (s *Service) reportCtx(r Report) context.Context {
	if r.Trace == "" {
		return context.Background()
	}
	return obs.WithTraceID(context.Background(), r.Trace)
}

// event appends one entry to the shared cluster journal; a no-op when
// no journal was configured, so emission points never need a guard.
func (s *Service) event(typ, node, detail, traceID string) {
	if s.events != nil {
		s.events.Append(typ, node, detail, traceID)
	}
}

// breakerEvent journals a source breaker's trip/close edges. Half-open
// is probation, not a verdict, so it is not journaled.
func (s *Service) breakerEvent(source string, from, to BreakerState) {
	switch to {
	case BreakerOpen:
		s.event(eventlog.TypeBreakerOpen, source, "tripped from "+from.String(), "")
	case BreakerClosed:
		s.event(eventlog.TypeBreakerClose, source, "recovered from "+from.String(), "")
	}
}

// reject quarantines a report with full accounting: ring entry,
// reason counter, registry counter, and a trace-stamped log record.
// The report's root span (if any) is failed and ended here, so every
// quarantined report's trace is tail-sampled.
func (s *Service) reject(r Report, reason Reason, detail string) {
	s.quar.Add(r, reason, detail)
	s.om.quarantine.With(string(reason)).Inc()
	s.log.LogAttrs(s.reportCtx(r), slog.LevelWarn, "report quarantined",
		slog.String("source", r.Source), slog.Uint64("seq", r.Seq),
		slog.String("reason", string(reason)), slog.String("detail", detail))
	r.span.Fail(string(reason) + ": " + detail)
	r.span.End()
}

// rejectCount accounts a drop without retaining the payload (shed and
// overload drops, where the report itself is not suspicious).
func (s *Service) rejectCount(r Report, reason Reason) {
	s.quar.count(reason)
	s.om.quarantine.With(string(reason)).Inc()
	s.log.LogAttrs(s.reportCtx(r), slog.LevelWarn, "report dropped",
		slog.String("source", r.Source), slog.Uint64("seq", r.Seq),
		slog.String("reason", string(reason)))
	r.span.Fail(string(reason))
	r.span.End()
}

// Submit runs the synchronous validation stages (breaker, malformed,
// duplicate, stale) and enqueues survivors for the pipeline. It never
// blocks: an overloaded queue drops with accounting. The only error is
// ErrClosed.
func (s *Service) Submit(r Report) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.submitted.Add(1)
	s.om.submitted.Inc()
	if s.tracer != nil {
		// The root span outlives Submit: it rides the report through the
		// queue (see Report.span) and ends in process/reject/onPanic.
		_, root := s.tracer.StartSpan(s.reportCtx(r), "ingest.report")
		root.SetAttr("source", r.Source)
		root.SetAttrInt("seq", int64(r.Seq))
		r.span = root
	}
	br := s.breaker(r.Source)
	if !br.Allow() {
		s.rejectCount(r, ReasonShed)
		return nil
	}
	vsp := r.span.StartChild("validate")
	validateStart := time.Now()
	detail := validateReport(r)
	validateDur := time.Since(validateStart)
	s.om.stage.With("validate").Observe(validateDur.Seconds())
	vsp.EndWith(validateDur)
	if detail != "" {
		s.reject(r, ReasonMalformed, detail)
		br.Record(false)
		return nil
	}
	s.mu.Lock()
	seen := s.seen[r.Source]
	if seen == nil {
		seen = make(map[uint64]struct{})
		s.seen[r.Source] = seen
	}
	_, dup := seen[r.Seq]
	if !dup {
		seen[r.Seq] = struct{}{}
	}
	hw := s.highWater
	s.mu.Unlock()
	if dup {
		s.reject(r, ReasonDuplicate, fmt.Sprintf("seq %d already ingested", r.Seq))
		br.Record(false)
		return nil
	}
	if hw > 0 && r.Stamp+s.cfg.MaxAge < hw {
		s.reject(r, ReasonStale, fmt.Sprintf("stamp %d older than %d-%d", r.Stamp, hw, s.cfg.MaxAge))
		br.Record(false)
		return nil
	}
	if hw > 0 && r.Stamp > hw+s.cfg.FutureSkew {
		s.reject(r, ReasonStale, fmt.Sprintf("stamp %d future-dated beyond %d+%d", r.Stamp, hw, s.cfg.FutureSkew))
		br.Record(false)
		return nil
	}
	if !s.pool.trySubmit(r) {
		s.rejectCount(r, ReasonOverload)
	}
	return nil
}

// process is the pipeline stage run by pool workers: Byzantine
// screening against the served snapshot, then serialized fusion into
// the working map and periodic gated commits.
func (s *Service) process(r Report) {
	br := s.breaker(r.Source)
	if s.cfg.ByzantineResidual > 0 {
		if frozen := s.store.Frozen(); frozen != nil {
			ssp := r.span.StartChild("screen")
			screenStart := time.Now()
			res := reportResidual(frozen, r.Observations, s.cfg.ByzantineResidual)
			screenDur := time.Since(screenStart)
			s.om.stage.With("screen").Observe(screenDur.Seconds())
			ssp.EndWith(screenDur)
			if res >= s.cfg.ByzantineResidual {
				s.reject(r, ReasonByzantine, fmt.Sprintf("median residual %.1f m >= %.1f", res, s.cfg.ByzantineResidual))
				br.Record(false)
				return
			}
		}
	}
	if s.cfg.ApplyHook != nil {
		s.cfg.ApplyHook(r)
	}
	s.apply(r)
	br.Record(true)
	r.span.End()
}

// apply fuses one report under the working-map lock and commits when
// the batch threshold is reached. The deferred unlock keeps a panicking
// fusion stage from wedging the service.
func (s *Service) apply(r Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	radius := s.cfg.Fuser.MatchRadius
	if radius <= 0 {
		radius = 3
	}
	view := r.Bounds().Expand(radius)
	fsp := r.span.StartChild("fuse")
	fuseStart := time.Now()
	s.fuser.Observe(r.Observations, view, r.Stamp)
	fuseDur := time.Since(fuseStart)
	s.om.stage.With("fuse").Observe(fuseDur.Seconds())
	fsp.EndWith(fuseDur)
	if r.Stamp > s.highWater {
		s.highWater = r.Stamp
	}
	s.accepted.Add(1)
	s.om.accepted.Inc()
	s.sinceCommit++
	if s.sinceCommit >= s.cfg.CommitEvery {
		s.commitLocked("auto batch", r.span)
	}
}

// onPanic quarantines a report whose pipeline stage panicked.
func (s *Service) onPanic(r Report, v any) {
	s.reject(r, ReasonPanic, fmt.Sprintf("pipeline stage panicked: %v", v))
	s.breaker(r.Source).Record(false)
}

// commitLocked pushes the working map through the gate. A rejected
// commit discards the poisoned working set and reverts to the last
// good version — the bad batch is gone, the served map untouched.
// Callers hold s.mu. parent is the span of the report whose batch
// tripped the commit (nil for explicit Commit/Rollback calls).
func (s *Service) commitLocked(note string, parent *obs.Span) error {
	s.sinceCommit = 0
	csp := parent.StartChild("commit")
	commitStart := time.Now()
	v, err := s.store.Commit(s.working, note)
	commitDur := time.Since(commitStart)
	s.om.stage.With("commit").Observe(commitDur.Seconds())
	if err != nil {
		csp.Fail(err.Error())
	}
	csp.EndWith(commitDur)
	if err != nil {
		s.rejected.Add(1)
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "commit rejected",
			slog.String("note", note), slog.String("error", err.Error()))
		s.event(eventlog.TypeCommitReject, "", note+": "+err.Error(), parent.TraceID())
		if rerr := s.resetWorking(); rerr != nil {
			return errors.Join(err, rerr)
		}
		return err
	}
	s.commits.Add(1)
	s.om.commits.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "version committed",
		slog.Int("seq", v.Seq), slog.String("note", note))
	s.publishCurrent(v, parent)
	return nil
}

// publishCurrent best-effort pushes the current version's tiles.
// parent is the span of the report that triggered the commit (nil for
// explicit Commit/Rollback calls).
func (s *Service) publishCurrent(v Version, parent *obs.Span) {
	if s.pub == nil {
		return
	}
	frozen := s.store.Frozen()
	if frozen == nil {
		return
	}
	psp := parent.StartChild("publish")
	publishStart := time.Now()
	_, err := s.pub.Sync(frozen)
	publishDur := time.Since(publishStart)
	s.om.stage.With("publish").Observe(publishDur.Seconds())
	if err != nil {
		psp.Fail(err.Error())
	}
	psp.EndWith(publishDur)
	if err != nil {
		s.pubErrs.Add(1)
		s.om.publishErrs.Inc()
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "publish failed",
			slog.Int("seq", v.Seq), slog.String("error", err.Error()))
		return
	}
	s.published.Add(1)
	s.om.published.Inc()
}

// Commit flushes the working map into a new version immediately,
// returning the gate error (and reverting the working set) on
// rejection.
func (s *Service) Commit(note string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(note, nil)
}

// Rollback restores the version n steps back as current, discards the
// working set, and republishes tiles.
func (s *Service) Rollback(n int) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.store.Rollback(n)
	if err != nil {
		return v, err
	}
	s.rollbacks.Add(1)
	s.om.rollbacks.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "rolled back",
		slog.Int("steps", n), slog.Int("seq", v.Seq))
	s.event(eventlog.TypeRollback, "", fmt.Sprintf("%d steps back to seq %d", n, v.Seq), "")
	if err := s.resetWorking(); err != nil {
		return v, err
	}
	s.publishCurrent(v, nil)
	return v, nil
}

// Quarantine exposes the rejected-report ring for inspection.
func (s *Service) Quarantine() *Quarantine { return s.quar }

// Store exposes the underlying version store.
func (s *Service) Store() *VersionStore { return s.store }

// BreakerState reports a source's breaker position (closed for unknown
// sources).
func (s *Service) BreakerState(source string) BreakerState {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	if b, ok := s.breakers[source]; ok {
		return b.State()
	}
	return BreakerClosed
}

// Close stops intake and drains the pipeline. The version store stays
// usable (Commit/Rollback via the service remain legal).
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.pool.close()
}

// Metrics snapshots the accounting counters.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		Submitted:           s.submitted.Load(),
		Accepted:            s.accepted.Load(),
		Quarantined:         s.quar.Counts(),
		QuarantineTotal:     s.quar.Total(),
		Commits:             s.commits.Load(),
		CommitsRejected:     s.rejected.Load(),
		Rollbacks:           s.rollbacks.Load(),
		Published:           s.published.Load(),
		PublishErrors:       s.pubErrs.Load(),
		CurrentVersion:      s.store.CurrentSeq(),
		DroppedObservations: 0,
	}
	s.mu.Lock()
	m.DroppedObservations = s.droppedObs + uint64(s.fuser.DroppedInvalid)
	s.mu.Unlock()
	s.brMu.Lock()
	for src, b := range s.breakers {
		if b.State() != BreakerClosed {
			m.OpenBreakers = append(m.OpenBreakers, src)
		}
	}
	s.brMu.Unlock()
	// The breaker gauge is sampled here rather than maintained on every
	// Record: walking the breaker map is O(sources) and belongs on the
	// scrape path, not the ingest hot path.
	s.om.breakerOpen.Set(int64(len(m.OpenBreakers)))
	return m
}
