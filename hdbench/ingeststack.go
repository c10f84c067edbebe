package hdbench

import (
	"fmt"
	"math/rand"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/incremental"
	"hdmaps/internal/update/ingest"
)

// reportsPerOp is both the ingest service's CommitEvery and the number
// of reports one operation submits, so every operation ends in exactly
// one commit and one publish.
const reportsPerOp = 16

// publishWait bounds how long an operation waits for its publish; a run
// that hits it has lost a report and fails its output checks.
const publishWait = 10 * time.Second

// ingestStack is the maintenance side: ingest.Service over a
// VersionStore holding the base map, publishing every committed version
// to a MemStore through Tiler.SyncMap. It touches no serving layer.
type ingestStack struct {
	e    *env
	svc  *ingest.Service
	reg  *obs.Registry
	pub  *tracedStore
	done *obs.Counter // ingest.publish.ok in the injected registry

	rng     *rand.Rand
	anchors []anchor
	seq     uint64
	stamp   uint64
	ops     [][]ingest.Report

	submitNs int64 // time inside Submit; the single client writes it
	opsDone  uint64
}

type anchor struct {
	p     geo.Vec2
	class core.Class
}

func newIngestStack(e *env) (*ingestStack, error) {
	s := &ingestStack{e: e, reg: obs.NewRegistry(), rng: vehicleRNG(e.seed, 0)}
	vs := ingest.NewVersionStore(ingest.GateConfig{Metrics: s.reg})
	if _, err := vs.Commit(e.fx.World, "base"); err != nil {
		return nil, fmt.Errorf("hdbench: commit base: %w", err)
	}
	s.pub = newTracedStore(storage.NewMemStore(), e.rec, "", e.traced)
	svc, err := ingest.NewService(vs, ingest.Config{
		CommitEvery: reportsPerOp,
		Publish:     &ingest.PublishConfig{Store: s.pub, Layer: layerName},
		Metrics:     s.reg,
	})
	if err != nil {
		return nil, err
	}
	s.svc = svc
	s.done = s.reg.Counter("ingest.publish.ok")
	for _, id := range e.fx.World.PointIDs() {
		p, _ := e.fx.World.Point(id)
		s.anchors = append(s.anchors, anchor{p: p.Pos.XY(), class: p.Class})
	}
	s.stamp = e.fx.World.Clock
	return s, nil
}

func (s *ingestStack) chain() []string { return []string{layerClient, layerStore} }

// report re-observes every point element within a 60 m Chebyshev window
// of a random anchor with 0.3 m position noise — a clean fleet report:
// nothing in it is stale, duplicated, malformed or far from the map.
func (s *ingestStack) report() ingest.Report {
	s.seq++
	s.stamp++
	centre := s.anchors[s.rng.Intn(len(s.anchors))].p
	r := ingest.Report{Source: fmt.Sprintf("veh-%d", s.seq%4), Seq: s.seq, Stamp: s.stamp}
	for _, a := range s.anchors {
		if dx, dy := a.p.X-centre.X, a.p.Y-centre.Y; dx < -60 || dx > 60 || dy < -60 || dy > 60 {
			continue
		}
		r.Observations = append(r.Observations, incremental.Observation{
			Class:  a.class,
			P:      geo.V2(a.p.X+s.rng.NormFloat64()*0.3, a.p.Y+s.rng.NormFloat64()*0.3),
			PosVar: 0.1,
			Stamp:  r.Stamp,
		})
	}
	return r
}

func (s *ingestStack) prepare(n int) {
	s.ops = [][]ingest.Report{make([]ingest.Report, 0, n*reportsPerOp)}
	for i := 0; i < n*reportsPerOp; i++ {
		s.ops[0] = append(s.ops[0], s.report())
	}
}

func (s *ingestStack) warm() error {
	s.prepare(s.e.spec.WarmOps)
	for i := 0; i < s.e.spec.WarmOps; i++ {
		if _, ok := s.do(0, i, ""); !ok {
			return fmt.Errorf("hdbench: %s: warm-up operation %d was not published", s.e.spec.Name, i)
		}
	}
	return nil
}

// do submits the operation's reports and waits for the publish they
// trigger. The wait polls the service's own publish counter (an atomic
// load) at 100 µs: Service offers no completion signal, and spinning
// would bill the idle client's CPU to the pipeline.
func (s *ingestStack) do(_, i int, trace string) (opKind, bool) {
	want := s.done.Value() + 1
	start := time.Now()
	for _, r := range s.ops[0][i*reportsPerOp : (i+1)*reportsPerOp] {
		r.Trace = trace
		if err := s.svc.Submit(r); err != nil {
			return kindPublish, false
		}
	}
	s.submitNs += int64(time.Since(start))
	s.opsDone++
	for deadline := start.Add(publishWait); s.done.Value() < want; {
		if time.Now().After(deadline) {
			return kindPublish, false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return kindPublish, true
}

func (s *ingestStack) counters() counters {
	var c counters
	c[cStoreGets] = float64(s.pub.gets.Load())
	c[cStoreKeys] = float64(s.pub.keys.Load())
	c[cStorePuts] = float64(s.pub.puts.Load())
	c[cStoreDeletes] = float64(s.pub.deletes.Load())
	c[cStorePutBytes] = float64(s.pub.putBytes.Load())
	c[cStorePutsChanged] = float64(s.pub.changed.Load())
	c[cWireBytes] = c[cStorePutBytes]
	c[cSubmitNs] = float64(s.submitNs)
	m := s.svc.Metrics()
	c[cReportsSubmitted] = float64(m.Submitted)
	c[cReportsAccepted] = float64(m.Accepted)
	c[cCommits] = float64(m.Commits)
	for i, stage := range []string{"validate", "screen", "fuse", "commit", "publish"} {
		if h := s.reg.LookupHistogram("ingest.stage.duration_seconds." + stage); h != nil {
			c[int(cStageValidate)+i] = h.Snapshot().Sum
		}
	}
	return c
}

// finish checks the service's ledger — every report accepted, one commit
// and one publish per operation, no publish errors — and that the
// published layer reloads into a map the constraint engine accepts.
func (s *ingestStack) finish() (failed, checked int) {
	check := func(ok bool) {
		checked++
		if !ok {
			failed++
		}
	}
	m := s.svc.Metrics()
	check(m.Submitted == m.Accepted)
	check(m.Commits == s.opsDone && m.Published == s.opsDone)
	check(m.PublishErrors == 0)
	loaded, err := storage.Tiler{}.LoadMap(s.pub, layerName, "published")
	check(err == nil && mapverify.Verify(loaded, mapverify.Config{}).Errors == 0)
	return failed, checked
}

func (s *ingestStack) close() { s.svc.Close() }
