package core

import "slices"

// Every check made of a map — Validate's, and every rule of the
// mapverify constraint engine — reads, for the element it reports on,
// exactly this:
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
// same findings in both, and checking a map that succeeds one already
// checked takes only the elements of the step's Closure. A check that
// comes to read anything further away must widen ClosureFrom with it;
// the differential tests of both consumers (ValidateOnly through the
// ingest gate, and mapverify.VerifyFrom) compare them with the full
// pass on every kind of edit to catch one that did not.

// A Closure is the set of IDs whose findings may differ between a map
// and its parent (see ClosureFrom), with the elements the map holds
// under them listed by kind.
type Closure struct {
	// Points, Lines, Areas, Lanelets, Bundles and Regs list, ascending,
	// the IDs of the closure under which the map holds an element of
	// that kind.
	Points, Lines, Areas, Lanelets, Bundles, Regs []ID

	ids map[ID]struct{}
}

// Has reports whether id is in the closure, whichever kind it names in
// either map — or none, for an element that went.
func (c *Closure) Has(id ID) bool {
	_, ok := c.ids[id]
	return ok
}

// ClosureFrom returns the closure of the step from parent to next,
// given ch, which must be next.ChangedFrom(parent): every ID that
// changed, appeared or went, every element of next that names one of
// those, and every lanelet a changed lanelet names as successor in
// either map (its fan-in may have moved). IDs are not told apart by
// kind — a map off the wire may reuse one across kinds, and a finding
// names only the ID — so an ID is in the closure for every kind at
// once; checking a few elements too many changes no finding. nil means
// the two maps differ in whether they have more than one lanelet, which
// every lanelet's orphan check reads, and so everything must be
// checked.
//
// The work is the changed sets plus one look at each lanelet, bundle
// or regulatory element of next when a kind it names changed; nothing
// is sorted but the closure itself.
func (next *Map) ClosureFrom(parent *Map, ch Changes) *Closure {
	if (len(parent.lanelets) > 1) != (len(next.lanelets) > 1) {
		return nil
	}
	sets := [...]map[ID]struct{}{ch.Points, ch.Lines, ch.Areas, ch.Lanelets, ch.Bundles, ch.Regs}
	n := 0
	for _, set := range sets {
		n += len(set)
	}
	ids := make(map[ID]struct{}, n)
	mark := func(id ID) { ids[id] = struct{}{} }
	for _, set := range sets {
		for id := range set {
			mark(id)
		}
	}
	for id := range ch.Lanelets {
		for _, m := range [...]*Map{parent, next} {
			if l, ok := m.lanelets[id]; ok {
				for _, s := range l.Successors {
					mark(s)
				}
			}
		}
	}
	if len(ch.Lines)+len(ch.Lanelets)+len(ch.Regs) > 0 {
		for id, l := range next.lanelets {
			if in(ch.Lines, l.Left, l.Right) ||
				in(ch.Lanelets, l.LeftNeighbor, l.RightNeighbor) || in(ch.Lanelets, l.Successors...) ||
				in(ch.Regs, l.Regulatory...) {
				mark(id)
			}
		}
	}
	if len(ch.Lanelets) > 0 {
		for id, b := range next.bundles {
			if in(ch.Lanelets, b.Lanelets...) {
				mark(id)
			}
		}
	}
	if len(ch.Points)+len(ch.Lines)+len(ch.Lanelets) > 0 {
		for id, r := range next.regs {
			if in(ch.Points, r.Devices...) || in(ch.Lines, r.StopLine) || in(ch.Lanelets, r.Lanelets...) {
				mark(id)
			}
		}
	}

	c := &Closure{ids: ids}
	buf := make([]ID, 0, len(ids)) // grows only for an ID held by two kinds
	c.Points, buf = held(next.points, ids, buf)
	c.Lines, buf = held(next.lines, ids, buf)
	c.Areas, buf = held(next.areas, ids, buf)
	c.Lanelets, buf = held(next.lanelets, ids, buf)
	c.Bundles, buf = held(next.bundles, ids, buf)
	c.Regs, _ = held(next.regs, ids, buf)
	return c
}

func in(set map[ID]struct{}, ids ...ID) bool {
	for _, id := range ids {
		if _, ok := set[id]; ok {
			return true
		}
	}
	return false
}

// held appends to buf, ascending, the IDs of set under which table
// holds an element, and returns them and buf.
func held[T any](table map[ID]*T, set map[ID]struct{}, buf []ID) ([]ID, []ID) {
	start := len(buf)
	for id := range set {
		if _, ok := table[id]; ok {
			buf = append(buf, id)
		}
	}
	out := buf[start:len(buf):len(buf)]
	slices.Sort(out)
	return out, buf
}
