// Package coretest makes small random maps and random edits of them,
// for tests that hold an incremental path against the full one it
// stands in for. Everything is a function of the rng handed in, so a
// failing seed replays.
package coretest

import (
	"fmt"
	"math/rand"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// Extent is the side of the origin-centred square the geometry lies
// in: tile coordinates of either sign at any tile size below it.
const Extent = 400.0

// idSpace is small on purpose: an ID is unique within its kind only,
// so the kinds reuse each other's, as a map off the wire may.
const idSpace = 90

func pos(rng *rand.Rand) geo.Vec2 {
	return geo.V2((rng.Float64()-0.5)*Extent, (rng.Float64()-0.5)*Extent)
}

// path is a short polyline starting anywhere: short, so that moving it
// moves its centroid with it.
func path(rng *rand.Rand) geo.Polyline {
	pl := geo.Polyline{pos(rng)}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		last := pl[len(pl)-1]
		pl = append(pl, last.Add(geo.V2(rng.Float64()*20, rng.NormFloat64()*5)))
	}
	return pl
}

func shift(pl []geo.Vec2, by geo.Vec2) {
	for i := range pl {
		pl[i] = pl[i].Add(by)
	}
}

func someIDs(rng *rand.Rand, max int) []core.ID {
	var out []core.ID
	for n := rng.Intn(max + 1); n > 0; n-- {
		out = append(out, core.ID(1+rng.Intn(idSpace)))
	}
	return out
}

// refs is a reference list that mostly leads with one of the IDs
// given — an element that exists — and now and then is someIDs.
func refs(rng *rand.Rand, ids []core.ID) []core.ID {
	if len(ids) == 0 || rng.Intn(4) == 0 {
		return someIDs(rng, 2)
	}
	return append([]core.ID{ids[rng.Intn(len(ids))]}, someIDs(rng, 1)...)
}

// meta is a fresh element's header; the version rides on the clock so
// that it differs between an element removed and one later added under
// the same ID.
func meta(m *core.Map) core.Meta {
	stamp := m.Tick()
	return core.Meta{Version: int(stamp), Stamp: stamp, Confidence: 0.5, Observy: 1, Source: "coretest"}
}

// add restores one random element of the given kind (0..5, in table
// order) under a random ID, and reports whether the ID was free. The
// references it holds are random too: some name an element, some
// nothing.
func add(m *core.Map, kind int, rng *rand.Rand) bool {
	id := core.ID(1 + rng.Intn(idSpace))
	var err error
	switch kind {
	case 0:
		p := core.PointElement{ID: id, Class: core.ClassSign, Pos: pos(rng).Vec3(2), Heading: rng.Float64(), Meta: meta(m)}
		if rng.Intn(2) == 0 {
			p.Attr = map[string]string{"type": fmt.Sprint("t", rng.Intn(4)), "face": "n"}
		}
		err = m.RestorePoint(p)
	case 1:
		err = m.RestoreLine(core.LineElement{ID: id, Class: core.ClassLaneBoundary, Geometry: path(rng),
			Boundary: core.BoundaryDashed, Meta: meta(m)})
	case 2:
		a := path(rng)
		err = m.RestoreArea(core.AreaElement{ID: id, Class: core.ClassCrosswalk,
			Outline: geo.Polygon(append(a, a[0].Add(geo.V2(0, 6)))), Meta: meta(m)})
	case 3:
		err = m.RestoreLanelet(core.Lanelet{ID: id, Left: core.ID(1 + rng.Intn(idSpace)), Right: core.ID(1 + rng.Intn(idSpace)),
			Centerline: path(rng), SpeedLimit: 10, Successors: someIDs(rng, 2), Regulatory: someIDs(rng, 1), Meta: meta(m)})
	case 4:
		err = m.RestoreBundle(core.LaneBundle{ID: id, RoadID: int64(rng.Intn(9)), Lanelets: someIDs(rng, 3),
			RefLine: path(rng), Meta: meta(m)})
	case 5:
		// Homed with its first device, else its first lanelet, else at
		// the origin: all three occur.
		r := core.RegulatoryElement{ID: id, Kind: core.RegStop, StopLine: core.ID(rng.Intn(idSpace)), Value: 1, Meta: meta(m)}
		if rng.Intn(3) > 0 {
			r.Devices = refs(rng, m.PointIDs())
		}
		if rng.Intn(3) > 0 {
			r.Lanelets = refs(rng, m.LaneletIDs())
		}
		err = m.RestoreRegulatory(r)
	}
	return err == nil
}

// Map returns a random map holding a handful of elements of every
// kind.
func Map(rng *rand.Rand) *core.Map {
	m := core.NewMap(fmt.Sprint("world", rng.Intn(100)))
	for kind := 0; kind < 6; kind++ {
		for n := 3 + rng.Intn(6); n > 0; n-- {
			add(m, kind, rng)
		}
	}
	return m
}

// Edit returns a map that differs from m by a random batch of changes
// to every kind: elements updated in place (moved a little or right
// across the map, references rewired), added and removed. It shares
// nothing with m, which is left as it was.
func Edit(m *core.Map, rng *rand.Rand) *core.Map {
	c := m.Clone()
	touch := func(meta *core.Meta) {
		if rng.Intn(8) > 0 { // now and then content changes and the stamp does not
			meta.Version++
			meta.Stamp = c.Tick()
		}
	}
	by := func() geo.Vec2 {
		if rng.Intn(3) == 0 {
			return pos(rng) // across tiles, whatever the tile size
		}
		return geo.V2(rng.NormFloat64(), rng.NormFloat64())
	}
	hit := func() bool { return rng.Intn(6) == 0 }
	for _, id := range c.PointIDs() {
		if p, _ := c.Point(id); hit() {
			p.Pos = p.Pos.XY().Add(by()).Vec3(p.Pos.Z)
			p.Meta.Observy++
			touch(&p.Meta)
		}
	}
	for _, id := range c.LineIDs() {
		if l, _ := c.Line(id); hit() {
			shift(l.Geometry, by())
			touch(&l.Meta)
		}
	}
	for _, id := range c.AreaIDs() {
		if a, _ := c.Area(id); hit() {
			shift(a.Outline, by())
			touch(&a.Meta)
		}
	}
	for _, id := range c.LaneletIDs() {
		if l, _ := c.Lanelet(id); hit() {
			if rng.Intn(2) == 0 {
				shift(l.Centerline, by())
			} else {
				l.SpeedLimit++
				l.Successors = someIDs(rng, 2)
			}
			touch(&l.Meta)
		}
	}
	for _, id := range c.BundleIDs() {
		if b, _ := c.Bundle(id); hit() {
			shift(b.RefLine, by())
			touch(&b.Meta)
		}
	}
	for _, id := range c.RegulatoryIDs() {
		if r, _ := c.Regulatory(id); hit() {
			r.Devices = refs(rng, c.PointIDs()) // often another home
			touch(&r.Meta)
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		add(c, rng.Intn(6), rng)
	}

	// Three of the kinds have no Remove: drop elements by restoring the
	// others into a new map.
	out := core.NewMap(c.Name)
	keep := func() bool { return rng.Intn(12) > 0 }
	for _, id := range c.PointIDs() {
		if e, _ := c.Point(id); keep() {
			_ = out.RestorePoint(*e)
		}
	}
	for _, id := range c.LineIDs() {
		if e, _ := c.Line(id); keep() {
			_ = out.RestoreLine(*e)
		}
	}
	for _, id := range c.AreaIDs() {
		if e, _ := c.Area(id); keep() {
			_ = out.RestoreArea(*e)
		}
	}
	for _, id := range c.LaneletIDs() {
		if e, _ := c.Lanelet(id); keep() {
			_ = out.RestoreLanelet(*e)
		}
	}
	for _, id := range c.BundleIDs() {
		if e, _ := c.Bundle(id); keep() {
			_ = out.RestoreBundle(*e)
		}
	}
	for _, id := range c.RegulatoryIDs() {
		if e, _ := c.Regulatory(id); keep() {
			_ = out.RestoreRegulatory(*e)
		}
	}
	out.SetClock(c.Clock)
	return out
}
