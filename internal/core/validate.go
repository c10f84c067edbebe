package core

import (
	"fmt"
	"math"

	"hdmaps/internal/geo"
)

// ValidationIssue describes one violation found by Validate.
type ValidationIssue struct {
	ID     ID
	Reason string
}

// String implements fmt.Stringer.
func (v ValidationIssue) String() string {
	return fmt.Sprintf("element %d: %s", v.ID, v.Reason)
}

// Validate checks structural and geometric invariants of the map:
//
//   - every point has a finite position, a known class and a confidence
//     within [0,1];
//   - every line has non-degenerate geometry (GeometryIssue: ≥2
//     vertices, finite, non-zero length) and a confidence within [0,1];
//   - every area outline has non-degenerate geometry (≥3 vertices);
//   - every lanelet references existing left/right bounds, has a
//     non-degenerate centreline, a finite non-negative speed limit, and
//     existing successors, neighbours and regulatory elements;
//   - every bundle groups at least one lanelet, all of them existing;
//   - every regulatory element references existing devices, stop line
//     and lanelets.
//
// No other confidence is checked. It returns all issues found (nil when
// the map is consistent): table by table — points, lines, areas,
// lanelets, bundles, regulatory elements — in ascending ID order.
func (m *Map) Validate() []ValidationIssue { return m.ValidateOnly(nil) }

// ValidateOnly is Validate restricted to the elements c lists, in the
// same order; nil checks every element. With c = m.ClosureFrom(parent,
// m.ChangedFrom(parent)) for a parent whose Validate found nothing, it
// returns exactly what Validate does: every element outside c reads what
// it read in parent (see the contract above Closure), so it has no issue
// either.
func (m *Map) ValidateOnly(c *Closure) []ValidationIssue {
	if c == nil {
		c = &Closure{
			Points: orderOf(m.points, m.pointOrder), Lines: orderOf(m.lines, m.lineOrder),
			Areas: orderOf(m.areas, m.areaOrder), Lanelets: orderOf(m.lanelets, m.laneletOrder),
			Bundles: orderOf(m.bundles, m.bundleOrder), Regs: orderOf(m.regs, m.regOrder),
		}
	}
	var issues []ValidationIssue
	bad := func(id ID, format string, args ...interface{}) {
		issues = append(issues, ValidationIssue{ID: id, Reason: fmt.Sprintf(format, args...)})
	}

	for _, id := range c.Points {
		p, ok := m.points[id]
		if !ok {
			continue
		}
		if !finiteV3(p.Pos) {
			bad(id, "non-finite point position")
		}
		if !p.Class.Valid() {
			bad(id, "invalid class %d", p.Class)
		}
		if p.Meta.Confidence < 0 || p.Meta.Confidence > 1 {
			bad(id, "confidence %v out of range", p.Meta.Confidence)
		}
	}
	for _, id := range c.Lines {
		l, ok := m.lines[id]
		if !ok {
			continue
		}
		if iss := GeometryIssue(l.Geometry, 2); iss != "" {
			bad(id, "line %s", iss)
		}
		if l.Meta.Confidence < 0 || l.Meta.Confidence > 1 {
			bad(id, "confidence %v out of range", l.Meta.Confidence)
		}
	}
	for _, id := range c.Areas {
		a, ok := m.areas[id]
		if !ok {
			continue
		}
		if iss := GeometryIssue(geo.Polyline(a.Outline), 3); iss != "" {
			bad(id, "area %s", iss)
		}
	}
	for _, id := range c.Lanelets {
		l, ok := m.lanelets[id]
		if !ok {
			continue
		}
		if _, ok := m.lines[l.Left]; !ok {
			bad(id, "missing left bound %d", l.Left)
		}
		if _, ok := m.lines[l.Right]; !ok {
			bad(id, "missing right bound %d", l.Right)
		}
		if iss := GeometryIssue(l.Centerline, 2); iss != "" {
			bad(id, "centreline %s", iss)
		}
		if l.SpeedLimit < 0 || math.IsNaN(l.SpeedLimit) || math.IsInf(l.SpeedLimit, 0) {
			bad(id, "invalid speed limit %v", l.SpeedLimit)
		}
		for _, s := range l.Successors {
			if _, ok := m.lanelets[s]; !ok {
				bad(id, "missing successor %d", s)
			}
		}
		for _, nb := range [...]ID{l.LeftNeighbor, l.RightNeighbor} {
			if nb != NilID {
				if _, ok := m.lanelets[nb]; !ok {
					bad(id, "missing neighbor %d", nb)
				}
			}
		}
		for _, r := range l.Regulatory {
			if _, ok := m.regs[r]; !ok {
				bad(id, "missing regulatory %d", r)
			}
		}
	}
	for _, id := range c.Bundles {
		b, ok := m.bundles[id]
		if !ok {
			continue
		}
		if len(b.Lanelets) == 0 {
			bad(id, "empty bundle")
		}
		for _, ll := range b.Lanelets {
			if _, ok := m.lanelets[ll]; !ok {
				bad(id, "missing bundle lanelet %d", ll)
			}
		}
	}
	for _, id := range c.Regs {
		r, ok := m.regs[id]
		if !ok {
			continue
		}
		for _, d := range r.Devices {
			if _, ok := m.points[d]; !ok {
				bad(id, "missing device %d", d)
			}
		}
		if r.StopLine != NilID {
			if _, ok := m.lines[r.StopLine]; !ok {
				bad(id, "missing stop line %d", r.StopLine)
			}
		}
		for _, ll := range r.Lanelets {
			if _, ok := m.lanelets[ll]; !ok {
				bad(id, "missing governed lanelet %d", ll)
			}
		}
	}
	return issues
}

// FinitePolyline reports whether every vertex of pl is finite (no NaN
// or Inf coordinate).
func FinitePolyline(pl geo.Polyline) bool {
	for _, v := range pl {
		if !finiteV2(v) {
			return false
		}
	}
	return true
}

// GeometryIssue reports why pl cannot serve as usable element geometry:
// fewer than minVerts vertices, a non-finite coordinate, or zero arc
// length (the element renders as a point). It is the single definition
// of "degenerate geometry" shared by Validate and the mapverify
// constraint engine, so a map cannot pass one and fail the other. The
// empty string means the geometry is usable.
func GeometryIssue(pl geo.Polyline, minVerts int) string {
	if len(pl) < minVerts {
		return fmt.Sprintf("with %d vertices (want >= %d)", len(pl), minVerts)
	}
	if !FinitePolyline(pl) {
		return "with non-finite vertex"
	}
	if pl.Length() <= 0 {
		return "with zero arc length (degenerate)"
	}
	return ""
}

func finiteV2(v geo.Vec2) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) && !math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

func finiteV3(v geo.Vec3) bool {
	return finiteV2(v.XY()) && !math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// Stats summarises a map for reporting.
type Stats struct {
	Points, Lines, Areas    int
	Lanelets, Bundles, Regs int
	// TotalLaneKm is the summed lanelet centreline length in kilometres.
	TotalLaneKm float64
	// TotalBoundaryKm is the summed line-element length in kilometres.
	TotalBoundaryKm float64
	// MeanConfidence averages element confidence over points and lines.
	MeanConfidence float64
	// Extent is the physical bounding box.
	Extent geo.AABB
}

// ComputeStats gathers map statistics.
func (m *Map) ComputeStats() Stats {
	s := Stats{Extent: m.Bounds()}
	s.Points, s.Lines, s.Areas, s.Lanelets, s.Bundles, s.Regs = m.Counts()
	var confSum float64
	var confN int
	for _, l := range m.lines {
		s.TotalBoundaryKm += l.Geometry.Length() / 1000
		confSum += l.Meta.Confidence
		confN++
	}
	for _, p := range m.points {
		confSum += p.Meta.Confidence
		confN++
	}
	for _, l := range m.lanelets {
		s.TotalLaneKm += l.Length() / 1000
	}
	if confN > 0 {
		s.MeanConfidence = confSum / float64(confN)
	}
	return s
}
