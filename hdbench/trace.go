package hdbench

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names: the module whose public boundary a span was recorded at.
const (
	layerClient     = "client"
	layerCluster    = "cluster"
	layerResilience = "resilience"
	layerTileServer = "tileserver"
	layerStore      = "store"
)

// Span is one timed call across a layer boundary, recorded by a wrapper
// the benchmark installed around that boundary (never from inside the
// layer). Spans of one vehicle operation share its Trace, the
// X-Trace-Id the client sends and every hop forwards.
type Span struct {
	// ID is the span's 1-based position in the trace file; Parent is the
	// ID of the span that caused it, 0 for an operation root and for
	// background work no operation waited for.
	ID     int `json:"id"`
	Parent int `json:"parent"`
	// Name is the layer.
	Name string `json:"name"`
	// Op is what was asked of the layer: the client operation, the HTTP
	// method, or the store call.
	Op    string `json:"op"`
	Trace string `json:"trace,omitempty"`
	// Node names the shard for spans recorded inside a cluster node.
	Node string `json:"node,omitempty"`
	// Key is the tile ("layer/tx/ty") or layer the call addressed.
	Key string `json:"key,omitempty"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Recorder keeps spans in memory. Wrappers consult on before taking any
// timestamp, so with recording off a wrapped call costs one atomic load.
type Recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *Recorder) record(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh batch.
func (r *Recorder) take() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// parentScan bounds how far back resolveParents looks for the parent of
// a span that carries no trace ID (a store call). Candidates are calls
// still open when the span started, so the bound only has to exceed the
// number of requests one stalled request can be overtaken by.
const parentScan = 512

// resolveParents numbers spans and links each to the span of the
// previous layer in chain that caused it: same trace (when the span has
// one), same node (when both name one), and open when the span started.
// Of several such spans, the one addressing the same key wins, then the
// latest started. A span with no such parent keeps Parent 0.
func resolveParents(spans []Span, chain []string) {
	byLayer := make(map[string][]int, len(chain))
	for i := range spans {
		spans[i].ID = i + 1
		spans[i].Parent = 0
		byLayer[spans[i].Name] = append(byLayer[spans[i].Name], i)
	}
	for _, idx := range byLayer {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for d := 1; d < len(chain); d++ {
		parents := byLayer[chain[d-1]]
		byTrace := make(map[string][]int)
		for _, p := range parents {
			if t := spans[p].Trace; t != "" {
				byTrace[t] = append(byTrace[t], p)
			}
		}
		for _, c := range byLayer[chain[d]] {
			s := &spans[c]
			cands, scan := parents, parentScan
			if s.Trace != "" {
				cands, scan = byTrace[s.Trace], len(parents)
			}
			// Last candidate that started no later than the span.
			j := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > s.Start }) - 1
			best := -1
			for k := j; k >= 0 && j-k < scan; k-- {
				p := &spans[cands[k]]
				if p.End < s.Start || (s.Node != "" && p.Node != "" && p.Node != s.Node) {
					continue
				}
				if best < 0 {
					best = cands[k]
				}
				if p.Key == s.Key {
					best = cands[k]
					break
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
			}
		}
	}
}

// covered returns how much of [start, end] the given intervals cover,
// counting overlapping intervals once. Intervals are clipped to the
// window, so a child that outlives its parent covers only the shared
// part.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// traceSums is what one batch of resolved spans says about where
// operation time went.
type traceSums struct {
	// busy is each layer's self time: its spans' durations minus the part
	// their child spans cover, over spans that belong to an operation.
	busy map[string]int64
	// legWall is the part of the cluster layer's spans their child spans
	// (the shard legs) cover — wall time the router spent waiting on
	// shards, parallel legs counted once.
	legWall int64
	// storeNs is time inside the store by store call.
	storeNs map[string]int64
	// opWall sums the operation roots; ops counts them.
	opWall int64
	ops    int
	// background counts spans no operation caused (read-repair traffic,
	// legs of a request already answered).
	background int
}

func (t *traceSums) add(o traceSums) {
	if t.busy == nil {
		t.busy, t.storeNs = map[string]int64{}, map[string]int64{}
	}
	for k, v := range o.busy {
		t.busy[k] += v
	}
	for k, v := range o.storeNs {
		t.storeNs[k] += v
	}
	t.legWall += o.legWall
	t.opWall += o.opWall
	t.ops += o.ops
	t.background += o.background
}

// summarize computes per-layer self times from resolved spans. The root
// layer is chain[0]; a span counts only if its parent links reach a root.
func summarize(spans []Span, chain []string) traceSums {
	sums := traceSums{busy: map[string]int64{}, storeNs: map[string]int64{}}
	children := make(map[int][][2]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	// Parents precede children in chain order, not in slice order, so
	// rootedness is resolved layer by layer.
	rooted := make([]bool, len(spans)+1)
	for _, layer := range chain {
		for i := range spans {
			s := &spans[i]
			if s.Name != layer {
				continue
			}
			rooted[s.ID] = layer == chain[0] || rooted[s.Parent]
		}
	}
	for i := range spans {
		s := &spans[i]
		if !rooted[s.ID] {
			sums.background++
			continue
		}
		dur := s.End - s.Start
		cov := covered(s.Start, s.End, children[s.ID])
		sums.busy[s.Name] += dur - cov
		switch s.Name {
		case chain[0]:
			sums.opWall += dur
			sums.ops++
		case layerCluster:
			sums.legWall += cov
		case layerStore:
			sums.storeNs[s.Op] += dur
		}
	}
	return sums
}
