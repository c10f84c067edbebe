// Package incremental implements continuous HD map refresh from repeated
// observations: the Kalman-fusion update with time decay and
// unmatched-element feedback of Liu et al. [43], the rasterised
// single-step change detection of Diff-Net [46], and the distributed
// RSU/MEC pre-aggregation of Qi et al. [47].
package incremental

import (
	"errors"
	"math"
	"sort"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/raster"
)

// ErrNoMap is returned when a fuser is constructed without a map.
var ErrNoMap = errors.New("incremental: nil map")

// Observation is one world-frame feature observation delivered to the
// fuser.
type Observation struct {
	Class core.Class
	P     geo.Vec2
	// PosVar is the observation position variance (m²).
	PosVar float64
	// Stamp is the logical observation time.
	Stamp uint64
}

// Config tunes the fuser.
type Config struct {
	// MatchRadius pairs observations with map elements (default 3 m).
	MatchRadius float64
	// DecayHalfLife is the confidence half-life in logical time units
	// for elements that should have been observed but were not
	// (default 5).
	DecayHalfLife float64
	// PromoteObs is the pending-observation count that creates a new
	// element (default 3).
	PromoteObs int
	// DemoteConf removes elements whose confidence falls below it
	// (default 0.15).
	DemoteConf float64
}

func (c *Config) defaults() {
	if c.MatchRadius <= 0 {
		c.MatchRadius = 3
	}
	if c.DecayHalfLife <= 0 {
		c.DecayHalfLife = 5
	}
	if c.PromoteObs <= 0 {
		c.PromoteObs = 3
	}
	if c.DemoteConf <= 0 {
		c.DemoteConf = 0.15
	}
}

// elemState is the per-element Kalman state: isotropic position variance
// plus existence confidence.
type elemState struct {
	posVar   float64
	lastSeen uint64
}

// pendingCluster accumulates unmatched observations (the feedback queue
// of Liu et al.): elements the map does not know yet.
type pendingCluster struct {
	class core.Class
	sum   geo.Vec2
	n     int
	last  uint64
}

// Fuser incrementally updates a map from observation batches.
type Fuser struct {
	Map *core.Map
	cfg Config

	states  map[core.ID]*elemState
	pending []*pendingCluster

	// Promoted / Removed tally applied changes for reporting.
	Promoted, Removed int
	// DroppedInvalid counts observations rejected by validateObs:
	// non-finite coordinates or variances, or an unknown class. Fusing
	// such an observation would poison the Kalman state (NaN propagates
	// through the gain into element positions), so they are dropped at
	// the door instead.
	DroppedInvalid int
}

// NewFuser wraps a map (mutated in place).
func NewFuser(m *core.Map, cfg Config) (*Fuser, error) {
	if m == nil {
		return nil, ErrNoMap
	}
	cfg.defaults()
	return &Fuser{Map: m, cfg: cfg, states: make(map[core.ID]*elemState)}, nil
}

func (f *Fuser) state(id core.ID) *elemState {
	s, ok := f.states[id]
	if !ok {
		s = &elemState{posVar: 1}
		f.states[id] = s
	}
	return s
}

// update changes a mapped point through the map, which stamps it: an
// element written through the pointer PointsIn returned would keep its
// version and stamp, and the tile it is published in its clock, while
// its bytes changed.
func (f *Fuser) update(id core.ID, change func(*core.PointElement)) {
	// The ID comes from a PointsIn of this map, made after the last
	// removal, so the element is there.
	_ = f.Map.UpdatePoint(id, change)
}

// ValidObservation reports whether o is safe to fuse: finite
// coordinates, finite variance, and a known class.
func ValidObservation(o Observation) bool {
	return finite(o.P.X) && finite(o.P.Y) && finite(o.PosVar) && o.Class.Valid()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Observe fuses one batch of observations taken over the given view
// region at logical time stamp. Mapped point elements inside view that
// received no matching observation decay; unmatched observations feed
// the pending queue and are promoted once seen PromoteObs times.
// Malformed observations (see ValidObservation) are dropped and tallied
// in DroppedInvalid rather than fused.
func (f *Fuser) Observe(obs []Observation, view geo.AABB, stamp uint64) {
	// Deterministic processing order.
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].P.X != obs[j].P.X {
			return obs[i].P.X < obs[j].P.X
		}
		return obs[i].P.Y < obs[j].P.Y
	})
	matched := make(map[core.ID]bool)
	for _, o := range obs {
		if !ValidObservation(o) {
			f.DroppedInvalid++
			continue
		}
		if o.PosVar <= 0 {
			o.PosVar = 0.25
		}
		// Match to the nearest map element of the class.
		var best *core.PointElement
		bestD := f.cfg.MatchRadius
		box := geo.NewAABB(o.P, o.P).Expand(f.cfg.MatchRadius)
		for _, p := range f.Map.PointsIn(box, o.Class) {
			if d := p.Pos.XY().Dist(o.P); d <= bestD {
				best, bestD = p, d
			}
		}
		if best != nil {
			// Scalar Kalman update on each axis with shared variance.
			st := f.state(best.ID)
			k := st.posVar / (st.posVar + o.PosVar)
			nx := best.Pos.X + k*(o.P.X-best.Pos.X)
			ny := best.Pos.Y + k*(o.P.Y-best.Pos.Y)
			f.update(best.ID, func(p *core.PointElement) {
				p.Pos = geo.V3(nx, ny, p.Pos.Z)
				p.Meta.Observy++
				p.Meta.Confidence = math.Min(1, p.Meta.Confidence+0.15*(1-p.Meta.Confidence))
			})
			st.posVar *= 1 - k
			st.lastSeen = stamp
			matched[best.ID] = true
			continue
		}
		// Unmatched: feedback queue.
		var cl *pendingCluster
		bestD = f.cfg.MatchRadius
		for _, c := range f.pending {
			if c.class != o.Class {
				continue
			}
			mean := c.sum.Scale(1 / float64(c.n))
			if d := mean.Dist(o.P); d <= bestD {
				cl, bestD = c, d
			}
		}
		if cl == nil {
			f.pending = append(f.pending, &pendingCluster{
				class: o.Class, sum: o.P, n: 1, last: stamp,
			})
		} else {
			cl.sum = cl.sum.Add(o.P)
			cl.n++
			cl.last = stamp
		}
	}

	// Promote mature pending clusters.
	keep := f.pending[:0]
	for _, c := range f.pending {
		if c.n >= f.cfg.PromoteObs {
			mean := c.sum.Scale(1 / float64(c.n))
			id := f.Map.AddPoint(core.PointElement{
				Class: c.class, Pos: mean.Vec3(2.2),
				Meta: core.Meta{Confidence: 0.6, Observy: c.n, Source: "incremental"},
			})
			f.states[id] = &elemState{posVar: 1 / float64(c.n), lastSeen: stamp}
			f.Promoted++
			continue
		}
		keep = append(keep, c)
	}
	f.pending = keep

	// Decay unobserved in-view elements; drop the hopeless ones.
	var remove []core.ID
	// One missed-pass decay step (per-visit hazard, Liu's time-decay
	// term).
	decay := func(p *core.PointElement) {
		p.Meta.Confidence *= math.Exp2(-1 / f.cfg.DecayHalfLife)
	}
	for _, p := range f.Map.PointsIn(view, core.ClassUnknown) {
		if matched[p.ID] {
			continue
		}
		f.update(p.ID, decay)
		if p.Meta.Confidence < f.cfg.DemoteConf {
			remove = append(remove, p.ID)
		}
	}
	for _, id := range remove {
		if err := f.Map.RemovePoint(id); err == nil {
			delete(f.states, id)
			f.Removed++
		}
	}
}

// PendingCount returns the number of unpromoted feedback clusters.
func (f *Fuser) PendingCount() int { return len(f.pending) }

// PosVar returns the fused position variance of an element (1 if never
// fused).
func (f *Fuser) PosVar(id core.ID) float64 { return f.state(id).posVar }

// RasterChanges implements the Diff-Net style one-step change surface:
// rasterise the on-board map and the freshly observed local map on a
// shared grid and return the differing cells.
func RasterChanges(onboard, observed *core.Map, res float64) ([]raster.CellDiff, error) {
	box := onboard.Bounds().Union(observed.Bounds()).Expand(res)
	a, err := raster.NewSemantic(box, res)
	if err != nil {
		return nil, err
	}
	b, err := raster.NewSemantic(box, res)
	if err != nil {
		return nil, err
	}
	renderInto(a, onboard)
	renderInto(b, observed)
	return a.Diff(b)
}

func renderInto(s *raster.Semantic, m *core.Map) {
	for _, id := range m.LineIDs() {
		l, _ := m.Line(id)
		s.MarkPolyline(l.Geometry, raster.ClassBit(l.Class))
	}
	for _, id := range m.PointIDs() {
		p, _ := m.Point(id)
		s.MarkPoint(p.Pos.XY(), raster.ClassBit(p.Class))
	}
}

// obsBytes is the wire size of one raw observation (class + 2 floats +
// variance + stamp).
const obsBytes = 1 + 8*3 + 8

// RSUReport is one roadside unit's pre-aggregated upload.
type RSUReport struct {
	Cell       [2]int32
	Candidates []Observation
	// RawCount is how many raw observations the RSU ingested.
	RawCount int
}

// PreAggregateRSU partitions observations into RSU cells and clusters
// within each cell (the MEC pre-processing of Qi et al.), returning one
// report per RSU. Central upload volume shrinks from RawCount
// observations to len(Candidates) aggregates per cell.
func PreAggregateRSU(obs []Observation, cellSize, clusterEps float64) []RSUReport {
	if cellSize <= 0 {
		cellSize = 250
	}
	if clusterEps <= 0 {
		clusterEps = 3
	}
	cells := make(map[[2]int32][]Observation)
	for _, o := range obs {
		k := [2]int32{int32(math.Floor(o.P.X / cellSize)), int32(math.Floor(o.P.Y / cellSize))}
		cells[k] = append(cells[k], o)
	}
	keys := make([][2]int32, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var out []RSUReport
	for _, k := range keys {
		local := cells[k]
		rep := RSUReport{Cell: k, RawCount: len(local)}
		type agg struct {
			class core.Class
			sum   geo.Vec2
			vsum  float64
			n     int
			stamp uint64
		}
		var aggs []*agg
		for _, o := range local {
			var best *agg
			bestD := clusterEps
			for _, a := range aggs {
				if a.class != o.Class {
					continue
				}
				mean := a.sum.Scale(1 / float64(a.n))
				if d := mean.Dist(o.P); d <= bestD {
					best, bestD = a, d
				}
			}
			if best == nil {
				aggs = append(aggs, &agg{class: o.Class, sum: o.P, vsum: o.PosVar, n: 1, stamp: o.Stamp})
			} else {
				best.sum = best.sum.Add(o.P)
				best.vsum += o.PosVar
				best.n++
				if o.Stamp > best.stamp {
					best.stamp = o.Stamp
				}
			}
		}
		for _, a := range aggs {
			rep.Candidates = append(rep.Candidates, Observation{
				Class: a.class,
				P:     a.sum.Scale(1 / float64(a.n)),
				// Variance of the mean.
				PosVar: a.vsum / float64(a.n) / float64(a.n),
				Stamp:  a.stamp,
			})
		}
		out = append(out, rep)
	}
	return out
}

// UploadSavings returns the raw and pre-aggregated central-upload byte
// volumes of a report set.
func UploadSavings(reports []RSUReport) (rawBytes, aggBytes int64) {
	for _, r := range reports {
		rawBytes += int64(r.RawCount) * obsBytes
		aggBytes += int64(len(r.Candidates)) * obsBytes
	}
	return rawBytes, aggBytes
}

// CentralMerge fuses the RSU candidate streams into one deduplicated
// observation list (cross-RSU clusters merged).
func CentralMerge(reports []RSUReport, mergeEps float64) []Observation {
	if mergeEps <= 0 {
		mergeEps = 3
	}
	var all []Observation
	for _, r := range reports {
		all = append(all, r.Candidates...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].P.X != all[j].P.X {
			return all[i].P.X < all[j].P.X
		}
		return all[i].P.Y < all[j].P.Y
	})
	var merged []Observation
	used := make([]bool, len(all))
	for i := range all {
		if used[i] {
			continue
		}
		sum := all[i].P
		n := 1
		stamp := all[i].Stamp
		for j := i + 1; j < len(all); j++ {
			if used[j] || all[j].Class != all[i].Class {
				continue
			}
			if all[j].P.Dist(all[i].P) <= mergeEps {
				sum = sum.Add(all[j].P)
				n++
				if all[j].Stamp > stamp {
					stamp = all[j].Stamp
				}
				used[j] = true
			}
		}
		merged = append(merged, Observation{
			Class:  all[i].Class,
			P:      sum.Scale(1 / float64(n)),
			PosVar: all[i].PosVar / float64(n),
			Stamp:  stamp,
		})
	}
	return merged
}
