package mapverify

import "hdmaps/internal/core"

// Every rule in geometric.go, topological.go and semantic.go keeps to
// the contract stated above core.Closure: for the element it reports
// on, it reads the element, the elements it names by ID, for a lanelet
// how many successor lists name it, and whether the map has more than
// one lanelet — nothing further away. So an element outside the
// closure of a step gets the same findings in both maps, and VerifyFrom
// re-checks only the closure. A rule that comes to read anything
// further away must widen core.Map.ClosureFrom with it; the
// differential tests compare the two passes on every kind of edit to
// catch one that did not.

// VerifyFrom is Verify(next, cfg) for a map that succeeds a parent,
// given prev, the report the same cfg produced for the parent, and
// dirty, which must be next.ClosureFrom(parent, next.ChangedFrom(parent))
// (the caller has other uses for it): findings on elements outside dirty
// are taken from prev, and the rules run on the closure only. The
// report is the one Verify would return, violation for violation. It
// falls back to checking everything when there is nothing to start from
// (prev or dirty nil — dirty is nil when the step crosses the
// one-lanelet line), when prev was truncated at the cap and so does not
// hold every finding, and when the cap would truncate the result —
// which findings survive the cap depends on the order a full pass adds
// them in.
func VerifyFrom(prev *Report, next *core.Map, dirty *core.Closure, cfg Config) *Report {
	cfg.defaults()
	if prev != nil && !prev.Truncated && dirty != nil {
		if rep := verifyChanged(prev, next, dirty, cfg); rep != nil {
			return rep
		}
	}
	rep := run(next, cfg, nil)
	sortViolations(rep.Violations)
	return rep
}

// verifyChanged is the pass that starts from prev; nil means it does
// not apply and the caller must check everything.
func verifyChanged(prev *Report, next *core.Map, dirty *core.Closure, cfg Config) *Report {
	rep := run(next, cfg, dirty)
	if rep.Truncated {
		return nil
	}
	for _, v := range prev.Violations {
		if dirty.Has(v.ElementID) {
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
