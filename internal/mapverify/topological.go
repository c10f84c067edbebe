package mapverify

import (
	"math"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// endInfo caches one lanelet's centreline endpoints and headings, so
// continuity checks cost O(1) per successor link: a hostile map can
// repeat one huge lanelet in thousands of successor lists, and the
// expensive geometry work must still happen once, not per reference.
type endInfo struct {
	ok           bool // geometry usable (finite, >= 2 verts, positive length)
	start, end   geo.Vec2
	startH, endH float64
}

// topological runs the relation rules: every reference resolves, every
// successor link is geometrically continuous (position and heading),
// no lanelet is fully disconnected, and merge/split arity stays
// plausible. It works on the lanelet relations directly — the same
// edges BuildRouteGraph consumes — so a map that verifies here yields
// a routing graph without dangling nodes.
func (e *engine) topological() {
	_, _, _, lanelets, _, _ := e.m.Counts()

	// Predecessor fan-in of the lanelets the run covers (for the orphan
	// and arity checks), counted over every lanelet on first use: a run
	// that covers no lanelet never pays for it.
	var predCount map[core.ID]int
	fanIn := func(id core.ID) int {
		if predCount == nil {
			predCount = make(map[core.ID]int, len(e.lanelets))
			for _, id := range e.m.LaneletIDs() {
				if l, err := e.m.Lanelet(id); err == nil {
					for _, s := range l.Successors {
						if e.checks(s) {
							predCount[s]++
						}
					}
				}
			}
		}
		return predCount[id]
	}
	// Per-lanelet endpoint cache, filled as links are followed; at most
	// every lanelet the run covers and their successors end up in it.
	ends := make(map[core.ID]endInfo, len(e.lanelets))
	end := func(id core.ID, l *core.Lanelet) endInfo {
		info, ok := ends[id]
		if ok {
			return info
		}
		// Degenerate geometry is the geometric pass's finding; here it
		// only leaves the lanelet without usable ends.
		if cl := l.Centerline; core.GeometryIssue(cl, 2) == "" {
			info = endInfo{
				ok:     true,
				start:  cl[0],
				end:    cl[len(cl)-1],
				startH: cl.HeadingAt(0),
				endH:   cl.HeadingAt(cl.Length()),
			}
		}
		ends[id] = info
		return info
	}

	for _, id := range e.lanelets {
		l, err := e.m.Lanelet(id)
		if err != nil {
			continue
		}
		if _, err := e.m.Line(l.Left); err != nil {
			e.add(RuleDanglingRef, SevError, id, "left bound %d does not exist", l.Left)
		}
		if _, err := e.m.Line(l.Right); err != nil {
			e.add(RuleDanglingRef, SevError, id, "right bound %d does not exist", l.Right)
		}
		for _, nb := range [...]core.ID{l.LeftNeighbor, l.RightNeighbor} {
			if nb == core.NilID {
				continue
			}
			if _, err := e.m.Lanelet(nb); err != nil {
				e.add(RuleDanglingRef, SevError, id, "neighbor lanelet %d does not exist", nb)
			}
		}
		for _, r := range l.Regulatory {
			if _, err := e.m.Regulatory(r); err != nil {
				e.add(RuleDanglingRef, SevError, id, "regulatory element %d does not exist", r)
			}
		}

		for _, sid := range l.Successors {
			succ, err := e.m.Lanelet(sid)
			if err != nil {
				e.add(RuleDanglingRef, SevError, id, "successor lanelet %d does not exist", sid)
				continue
			}
			self, next := end(id, l), end(sid, succ)
			if !self.ok || !next.ok {
				continue // degenerate geometry already reported
			}
			if gap := self.end.Dist(next.start); gap > e.cfg.MaxGap {
				e.add(RuleDiscontinuity, SevError, id,
					"successor %d starts %.1f m from this lanelet's end (max %g)",
					sid, gap, e.cfg.MaxGap)
			}
			if turn := math.Abs(geo.AngleDiff(next.startH, self.endH)); turn > e.cfg.MaxHeadingJump {
				e.add(RuleHeadingFlip, SevError, id,
					"heading jumps %.2f rad into successor %d (max %g)",
					turn, sid, e.cfg.MaxHeadingJump)
			}
		}

		if len(l.Successors) > e.cfg.MaxFanout {
			e.add(RuleArity, SevWarn, id,
				"split into %d successors (max %d)", len(l.Successors), e.cfg.MaxFanout)
		}
		if in := fanIn(id); in > e.cfg.MaxFanout {
			e.add(RuleArity, SevWarn, id,
				"merge of %d predecessors (max %d)", in, e.cfg.MaxFanout)
		}
		if lanelets > 1 && len(l.Successors) == 0 && fanIn(id) == 0 &&
			l.LeftNeighbor == core.NilID && l.RightNeighbor == core.NilID {
			e.add(RuleOrphan, SevWarn, id, "lanelet has no successors, predecessors, or neighbors")
		}
	}

	for _, id := range e.bundles {
		b, err := e.m.Bundle(id)
		if err != nil {
			continue
		}
		if len(b.Lanelets) == 0 {
			e.add(RuleDanglingRef, SevError, id, "bundle groups no lanelets")
		}
		for _, ll := range b.Lanelets {
			if _, err := e.m.Lanelet(ll); err != nil {
				e.add(RuleDanglingRef, SevError, id, "bundle lanelet %d does not exist", ll)
			}
		}
	}

	for _, id := range e.regs {
		r, err := e.m.Regulatory(id)
		if err != nil {
			continue
		}
		for _, d := range r.Devices {
			if _, err := e.m.Point(d); err != nil {
				e.add(RuleDanglingRef, SevError, id, "device point %d does not exist", d)
			}
		}
		if r.StopLine != core.NilID {
			if _, err := e.m.Line(r.StopLine); err != nil {
				e.add(RuleDanglingRef, SevError, id, "stop line %d does not exist", r.StopLine)
			}
		}
		for _, ll := range r.Lanelets {
			if _, err := e.m.Lanelet(ll); err != nil {
				e.add(RuleDanglingRef, SevError, id, "governed lanelet %d does not exist", ll)
			}
		}
	}
}
