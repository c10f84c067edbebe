package mapverify

import "hdmaps/internal/core"

// Every rule in geometric.go, topological.go and semantic.go reads, for
// the element it reports on, exactly this:
//
//   - the element itself;
//   - the elements it names by ID — a lanelet's bounds, successors,
//     neighbours and regulatory elements, a bundle's lanelets, a
//     regulatory element's devices, stop line and governed lanelets —
//     whether they exist and what they hold;
//   - for a lanelet, how many successor lists name it;
//   - whether the map has more than one lanelet.
//
// So an element for which all of that is the same in two maps gets the
// same findings in both, and VerifyFrom re-checks only the rest. A rule
// that comes to read anything further away must widen dirtyClosure
// with it; the differential tests compare the two passes on every kind
// of edit to catch one that did not.

// VerifyFrom is Verify(next, cfg) for a map that succeeds parent, given
// prev, the report the same cfg produced for parent, and ch, which must
// be next.ChangedFrom(parent) (the caller has other uses for it, and it
// is not read without a parent): findings on elements the step from
// parent to next cannot have affected are taken from prev, and the
// rules run on the others only. The report is the one Verify would
// return, violation for violation. It falls back to
// checking everything when there is nothing to start from (parent or
// prev nil), when prev was truncated at the cap and so does not hold
// every finding, and when the cap would truncate the result — which
// findings survive the cap depends on the order a full pass adds them
// in.
func VerifyFrom(parent *core.Map, prev *Report, next *core.Map, ch core.Changes, cfg Config) *Report {
	cfg.defaults()
	if parent != nil && prev != nil && !prev.Truncated {
		if rep := verifyChanged(parent, prev, next, ch, cfg); rep != nil {
			return rep
		}
	}
	rep := run(next, cfg, nil)
	sortViolations(rep.Violations)
	return rep
}

// verifyChanged is the pass that starts from prev; nil means it does
// not apply and the caller must check everything.
func verifyChanged(parent *core.Map, prev *Report, next *core.Map, ch core.Changes, cfg Config) *Report {
	dirty := dirtyClosure(parent, next, ch)
	if dirty == nil {
		return nil
	}
	rep := run(next, cfg, dirty)
	if rep.Truncated {
		return nil
	}
	for _, v := range prev.Violations {
		if _, redone := dirty[v.ElementID]; redone {
			continue
		}
		if v.Severity == SevError {
			rep.Errors++
		} else {
			rep.Warnings++
		}
		rep.Violations = append(rep.Violations, v)
	}
	if len(rep.Violations) > cfg.MaxViolations {
		return nil
	}
	sortViolations(rep.Violations)
	return rep
}

// dirtyClosure returns the IDs whose findings may differ between
// parent and next: every element that changed, appeared or went, every
// element of next that names one of those, and every lanelet a changed
// lanelet names as successor in either map (its fan-in may have
// moved). IDs are not told apart by element kind — a map off the wire
// may reuse one across kinds, and a violation names only the ID — so
// an ID is dirty for every kind at once; checking a few elements too
// many changes no finding. nil means the two maps differ in whether
// they have more than one lanelet, which every lanelet's orphan check
// reads.
func dirtyClosure(parent, next *core.Map, ch core.Changes) map[core.ID]struct{} {
	_, _, _, was, _, _ := parent.Counts()
	_, _, _, now, _, _ := next.Counts()
	if (was > 1) != (now > 1) {
		return nil
	}
	dirty := make(map[core.ID]struct{})
	mark := func(id core.ID) { dirty[id] = struct{}{} }
	for _, set := range []map[core.ID]struct{}{ch.Points, ch.Lines, ch.Areas, ch.Lanelets, ch.Bundles, ch.Regs} {
		for id := range set {
			mark(id)
		}
	}
	for id := range ch.Lanelets {
		for _, m := range []*core.Map{parent, next} {
			if l, err := m.Lanelet(id); err == nil {
				for _, s := range l.Successors {
					mark(s)
				}
			}
		}
	}

	in := func(set map[core.ID]struct{}, ids ...core.ID) bool {
		for _, id := range ids {
			if _, ok := set[id]; ok {
				return true
			}
		}
		return false
	}
	if len(ch.Lines)+len(ch.Lanelets)+len(ch.Regs) > 0 {
		for _, id := range next.LaneletIDs() {
			l, err := next.Lanelet(id)
			if err != nil {
				continue
			}
			if in(ch.Lines, l.Left, l.Right) ||
				in(ch.Lanelets, l.LeftNeighbor, l.RightNeighbor) || in(ch.Lanelets, l.Successors...) ||
				in(ch.Regs, l.Regulatory...) {
				mark(id)
			}
		}
	}
	if len(ch.Lanelets) > 0 {
		for _, id := range next.BundleIDs() {
			if b, err := next.Bundle(id); err == nil && in(ch.Lanelets, b.Lanelets...) {
				mark(id)
			}
		}
	}
	if len(ch.Points)+len(ch.Lines)+len(ch.Lanelets) > 0 {
		for _, id := range next.RegulatoryIDs() {
			r, err := next.Regulatory(id)
			if err != nil {
				continue
			}
			if in(ch.Points, r.Devices...) || in(ch.Lines, r.StopLine) || in(ch.Lanelets, r.Lanelets...) {
				mark(id)
			}
		}
	}
	return dirty
}
