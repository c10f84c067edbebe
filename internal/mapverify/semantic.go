package mapverify

import (
	"math"

	"hdmaps/internal/core"
)

// semantic runs the meaning rules: posted speed limits are physically
// plausible and do not fall off a cliff across successor links,
// regulatory elements are sanely associated with the lanelets they
// govern, and every element type stays inside the known taxonomy (an
// out-of-range enum survives the binary codec — it is one byte — so
// the verifier is the layer that catches it).
func (e *engine) semantic() {
	for _, id := range e.points {
		p, err := e.m.Point(id)
		if err != nil {
			continue
		}
		if !p.Class.Valid() {
			e.add(RuleTaxonomy, SevError, id, "unknown point class %d", uint8(p.Class))
		}
	}
	for _, id := range e.lines {
		l, err := e.m.Line(id)
		if err != nil {
			continue
		}
		if !l.Class.Valid() {
			e.add(RuleTaxonomy, SevError, id, "unknown line class %d", uint8(l.Class))
		}
		if !l.Boundary.Valid() {
			e.add(RuleTaxonomy, SevError, id, "unknown boundary type %d", uint8(l.Boundary))
		}
	}
	for _, id := range e.areas {
		a, err := e.m.Area(id)
		if err != nil {
			continue
		}
		if !a.Class.Valid() {
			e.add(RuleTaxonomy, SevError, id, "unknown area class %d", uint8(a.Class))
		}
	}

	for _, id := range e.lanelets {
		l, err := e.m.Lanelet(id)
		if err != nil {
			continue
		}
		if !l.Type.Valid() {
			e.add(RuleTaxonomy, SevError, id, "unknown lane type %d", uint8(l.Type))
		}
		v := l.SpeedLimit
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			e.add(RuleSpeedRange, SevError, id, "speed limit %v is not a finite non-negative value", v)
			continue
		case v > e.cfg.MaxSpeed:
			e.add(RuleSpeedRange, SevError, id, "speed limit %.1f m/s (max %g)", v, e.cfg.MaxSpeed)
			continue
		case v == 0:
			continue // unposted: nothing to compare across links
		}
		for _, sid := range l.Successors {
			succ, err := e.m.Lanelet(sid)
			if err != nil {
				continue // dangling: the topological pass's finding
			}
			sv := succ.SpeedLimit
			if sv <= 0 || math.IsNaN(sv) || math.IsInf(sv, 0) {
				continue
			}
			ratio := v / sv
			if ratio < 1 {
				ratio = sv / v
			}
			if ratio > e.cfg.MaxSpeedRatio {
				e.add(RuleSpeedCliff, SevError, id,
					"posted limit %.1f m/s vs %.1f m/s on successor %d (ratio %.1f, max %g)",
					v, sv, sid, ratio, e.cfg.MaxSpeedRatio)
			}
		}
	}

	for _, id := range e.regs {
		r, err := e.m.Regulatory(id)
		if err != nil {
			continue
		}
		if !r.Kind.Valid() {
			e.add(RuleTaxonomy, SevError, id, "unknown regulatory kind %d", uint8(r.Kind))
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || r.Value < 0 {
			e.add(RuleSpeedRange, SevError, id, "regulatory value %v is not a finite non-negative value", r.Value)
		}
		if len(r.Lanelets) == 0 {
			e.add(RuleRegAssoc, SevWarn, id, "%s rule governs no lanelets", r.Kind)
		}
		// Distance checks are bounded per rule: a hostile map can list
		// thousands of devices and governed lanelets, and each pair costs
		// a polyline-distance pass. Past the budget the remaining pairs
		// are treated as vacuously near (give up, never false-positive).
		pairBudget := maxDistancePairs
		for _, d := range r.Devices {
			dev, err := e.m.Point(d)
			if err != nil {
				continue // dangling: the topological pass's finding
			}
			switch dev.Class {
			case core.ClassSign, core.ClassTrafficLight, core.ClassPole:
			default:
				e.add(RuleRegAssoc, SevWarn, id,
					"device %d is a %s, not a sign/light/pole", d, dev.Class)
			}
			if near := e.deviceNearLanelets(dev, r.Lanelets, &pairBudget); !near {
				e.add(RuleRegAssoc, SevWarn, id,
					"device %d stands more than %g m from every governed lanelet",
					d, e.cfg.MaxDeviceDist)
			}
		}
	}
}

// maxDistancePairs caps the device-to-lanelet distance computations
// per regulatory element. Real rules govern a handful of lanelets with
// a couple of devices, far below the cap; only hostile inputs hit it.
const maxDistancePairs = 64

// deviceNearLanelets reports whether the device stands within
// MaxDeviceDist of at least one governed lanelet's centreline. A rule
// with no resolvable governed lanelets is vacuously near (the missing
// association is its own finding), as is one whose distance budget ran
// out before an answer.
func (e *engine) deviceNearLanelets(dev *core.PointElement, lanelets []core.ID, budget *int) bool {
	if len(lanelets) == 0 {
		return true
	}
	pos := dev.Pos.XY()
	any := false
	for _, ll := range lanelets {
		l, err := e.m.Lanelet(ll)
		if err != nil || len(l.Centerline) == 0 {
			continue
		}
		if *budget <= 0 {
			return true
		}
		*budget--
		any = true
		if projectStrided(l.Centerline, pos).Dist(pos) <= e.cfg.MaxDeviceDist {
			return true
		}
	}
	return !any
}
