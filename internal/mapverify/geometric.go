package mapverify

import (
	"math"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// sideEps is the tolerance (metres) when deciding which side of the
// centreline a bound sits on: a bound within this band of the
// centreline is not flagged as wrong-sided.
const sideEps = 0.05

// maxIntersectSegs caps the segment count fed into the quadratic
// intersection checks. Fuzz-decoded maps can carry polylines with tens
// of thousands of vertices; beyond the cap, segments are strided so a
// check stays O(maxIntersectSegs²) while remaining deterministic.
const maxIntersectSegs = 256

// geometric runs the per-element geometry rules: finiteness and
// degeneracy for every physical element, then lanelet shape rules
// (vertex jumps, self-intersection, curvature) and lanelet-vs-bounds
// rules (width corridor, wrong-sided bounds, crossing bounds).
func (e *engine) geometric() {
	for _, id := range e.points {
		p, err := e.m.Point(id)
		if err != nil {
			continue
		}
		if !finite(p.Pos.X) || !finite(p.Pos.Y) || !finite(p.Pos.Z) || !finite(p.Heading) {
			e.add(RuleNonFinite, SevError, id, "non-finite point position or heading")
		}
	}
	for _, id := range e.lines {
		l, err := e.m.Line(id)
		if err != nil {
			continue
		}
		e.checkPolyline(id, "line", l.Geometry, 2)
	}
	for _, id := range e.areas {
		a, err := e.m.Area(id)
		if err != nil {
			continue
		}
		e.checkPolyline(id, "area outline", geo.Polyline(a.Outline), 3)
	}
	for _, id := range e.lanelets {
		e.laneletGeometry(id)
	}
}

// checkPolyline applies the shared degenerate-geometry definition
// (core.GeometryIssue) and splits its finding across the nonfinite and
// degenerate rules. It reports whether the geometry is usable for
// further rules.
func (e *engine) checkPolyline(id core.ID, what string, pl geo.Polyline, minVerts int) bool {
	if !core.FinitePolyline(pl) {
		e.add(RuleNonFinite, SevError, id, "%s with non-finite vertex", what)
		return false
	}
	if iss := core.GeometryIssue(pl, minVerts); iss != "" {
		e.add(RuleDegenerate, SevError, id, "%s %s", what, iss)
		return false
	}
	return true
}

func (e *engine) laneletGeometry(id core.ID) {
	l, err := e.m.Lanelet(id)
	if err != nil {
		return
	}
	cl := l.Centerline
	if !e.checkPolyline(id, "centreline", cl, 2) {
		return
	}

	for i := 1; i < len(cl); i++ {
		if d := cl[i].Dist(cl[i-1]); d > e.cfg.MaxVertexJump {
			e.add(RuleVertexJump, SevError, id,
				"centreline vertices %d and %d are %.0f m apart (max %g)",
				i-1, i, d, e.cfg.MaxVertexJump)
			break
		}
	}

	if p, ok := selfIntersects(cl); ok {
		e.add(RuleSelfIntersect, SevError, id,
			"centreline crosses itself near (%.1f, %.1f)", p.X, p.Y)
	}

	L := cl.Length()
	if len(cl) >= 3 && !e.off[RuleCurvature] {
		const stations = 8
		for i := 1; i <= stations; i++ {
			s := L * float64(i) / float64(stations+1)
			if k := cl.CurvatureAt(s, e.cfg.CurvatureWindow); math.Abs(k) > e.cfg.MaxCurvature {
				e.add(RuleCurvature, SevWarn, id,
					"curvature %.2f 1/m at s=%.1f (max %g)", k, s, e.cfg.MaxCurvature)
				break
			}
		}
	}

	// Bounds-relative rules need both bound lines present and usable;
	// missing ones are the topological pass's finding, not ours.
	left, lerr := e.m.Line(l.Left)
	right, rerr := e.m.Line(l.Right)
	if lerr != nil || rerr != nil ||
		core.GeometryIssue(left.Geometry, 2) != "" || core.GeometryIssue(right.Geometry, 2) != "" {
		return
	}

	if crossIntersects(left.Geometry, right.Geometry) {
		e.add(RuleBoundCross, SevError, id, "left bound %d crosses right bound %d", l.Left, l.Right)
	}

	leftWrong, rightWrong, widthBad := false, false, false
	for i := 1; i <= e.cfg.WidthSamples; i++ {
		s := L * float64(i) / float64(e.cfg.WidthSamples+1)
		p := cl.At(s)
		footL := projectStrided(left.Geometry, p)
		footR := projectStrided(right.Geometry, p)
		_, dL := cl.SignedOffset(footL)
		_, dR := cl.SignedOffset(footR)
		if !leftWrong && dL < -sideEps {
			leftWrong = true
			e.add(RuleBoundSide, SevError, id,
				"left bound %d lies right of the centreline at s=%.1f (offset %.2f m)", l.Left, s, dL)
		}
		if !rightWrong && dR > sideEps {
			rightWrong = true
			e.add(RuleBoundSide, SevError, id,
				"right bound %d lies left of the centreline at s=%.1f (offset %.2f m)", l.Right, s, dR)
		}
		if w := dL - dR; !widthBad && (w < e.cfg.MinLaneWidth || w > e.cfg.MaxLaneWidth) {
			widthBad = true
			e.add(RuleLaneWidth, SevError, id,
				"width %.2f m at s=%.1f (want %g..%g)", w, s, e.cfg.MinLaneWidth, e.cfg.MaxLaneWidth)
		}
		if leftWrong && rightWrong && widthBad {
			break
		}
	}
}

// stride returns the step that keeps n segments under maxIntersectSegs
// comparisons per axis.
func stride(n int) int {
	if n <= maxIntersectSegs {
		return 1
	}
	return (n + maxIntersectSegs - 1) / maxIntersectSegs
}

// selfIntersects reports whether any two non-adjacent segments of pl
// cross, sampling with a stride on very long polylines so the check
// stays bounded on hostile input.
func selfIntersects(pl geo.Polyline) (geo.Vec2, bool) {
	n := len(pl) - 1 // segment count
	if n < 3 {
		return geo.Vec2{}, false
	}
	st := stride(n)
	for i := 0; i < n; i += st {
		for j := i + 2; j < n; j += st {
			if i == 0 && j == n-1 && pl[0] == pl[n] {
				continue // closed loop: shared endpoint is not a crossing
			}
			if p, ok := geo.SegmentIntersect(pl[i], pl[i+1], pl[j], pl[j+1]); ok {
				return p, true
			}
		}
	}
	return geo.Vec2{}, false
}

// crossIntersects reports whether polylines a and b cross, with the
// same stride bound as selfIntersects.
func crossIntersects(a, b geo.Polyline) bool {
	na, nb := len(a)-1, len(b)-1
	if na < 1 || nb < 1 {
		return false
	}
	sa, sb := stride(na), stride(nb)
	for i := 0; i < na; i += sa {
		for j := 0; j < nb; j += sb {
			if _, ok := geo.SegmentIntersect(a[i], a[i+1], b[j], b[j+1]); ok {
				return true
			}
		}
	}
	return false
}

// closestOnSeg returns the closest point to q on segment [a,b].
func closestOnSeg(q, a, b geo.Vec2) geo.Vec2 {
	ab := b.Sub(a)
	den := ab.NormSq()
	if den == 0 {
		return a
	}
	t := q.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Add(ab.Scale(t))
}

// projectStrided returns the closest point on pl to q — exact below
// maxIntersectSegs segments (stride 1, matching geo.Project's foot
// point), sampled above so a many-lanelet map sharing one enormous
// bound line cannot multiply the per-lanelet cost. pl must be
// non-empty.
func projectStrided(pl geo.Polyline, q geo.Vec2) geo.Vec2 {
	best, bd := pl[0], pl[0].DistSq(q)
	n := len(pl) - 1
	st := stride(n)
	for i := 0; i < n; i += st {
		p := closestOnSeg(q, pl[i], pl[i+1])
		if d := p.DistSq(q); d < bd {
			best, bd = p, d
		}
	}
	return best
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
