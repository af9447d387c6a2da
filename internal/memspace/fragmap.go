package memspace

import "sort"

// FragMap is the shared fragment index of the runtime's interval-tracking
// layers (the depgraph conflict map and the coherence directory): a set of
// pairwise-disjoint fragments sorted by address, each carrying a caller
// payload, that splits whenever a region boundary lands strictly inside an
// existing fragment.
//
// The index is sharded by address range: fragments live in bounded runs
// ("shards") held in a sorted top-level table, so locating a fragment is a
// two-level binary search (O(log n)) and a split memmoves at most one
// shard (O(shardMax)) instead of the whole index — the seed's single
// sorted slice paid an O(n) memmove per split, quadratic once graphs
// reach 10^5+ fragments. Shards split in two when they outgrow shardMax,
// which inserts one pointer into the small top-level table.
//
// Every query and mutation visits shards in ascending address order and
// fragments in address order within each shard (the deterministic
// shard-merge order), so callers observe exactly the sequence the flat
// sorted slice produced: dependence arcs and transfer plans built on top
// replay bit-identically.
//
// Concurrency: none. One runtime image drives each FragMap serially (the
// simulation engine runs one process at a time), so the index takes no
// locks; a caller sharing one across goroutines must serialize every call
// itself. The caller owns the payloads' contents.
type FragMap[V any] struct {
	// clone copies a payload when a fragment splits (the left half gets
	// the clone, the right half keeps the original value). Nil means a
	// shallow copy of V is sufficient.
	clone func(V) V
	// fresh builds the payload of a gap fragment created by Cover. Nil
	// means the zero value.
	fresh func() V

	shards []*fragShard[V]
	// ends caches shards[i].end() in a flat slice, so the top-level binary
	// search probes contiguous uint64s instead of chasing three pointers
	// per probe — locate() is the single hottest call of million-task
	// submission. Kept in sync by insertAt and rebalance; fragment splits
	// never change a shard's end.
	ends []uint64
	n    int
}

// Frag is one fragment: a region plus the caller's payload. The region is
// owned by the map (mutated on splits); the payload belongs to the caller.
type Frag[V any] struct {
	R Region
	V V
}

type fragShard[V any] struct {
	frags []*Frag[V]
}

// shardMax bounds a shard's fragment count; an overflowing shard splits
// into two halves. 256 keeps the per-split memmove under 2 KiB while the
// top-level table stays tiny (4k entries at a million fragments).
const shardMax = 256

// NewFragMap returns an empty index. clone copies payloads across splits
// (nil: shallow copy); fresh builds gap-fragment payloads (nil: zero V).
func NewFragMap[V any](clone func(V) V, fresh func() V) *FragMap[V] {
	return &FragMap[V]{clone: clone, fresh: fresh}
}

// Len returns the number of fragments.
func (m *FragMap[V]) Len() int { return m.n }

// Shards returns the number of shards (observability and tests).
func (m *FragMap[V]) Shards() int { return len(m.shards) }

// start and end give a shard's address span. Shards are never empty.
func (s *fragShard[V]) start() uint64 { return s.frags[0].R.Addr }
func (s *fragShard[V]) end() uint64   { return s.frags[len(s.frags)-1].R.End() }

// locate returns the position of the first fragment whose End > addr, as a
// (shard, fragment) index pair; si == len(shards) means past the end.
func (m *FragMap[V]) locate(addr uint64) (si, fi int) {
	si = sort.Search(len(m.ends), func(i int) bool { return m.ends[i] > addr })
	if si == len(m.shards) {
		return si, 0
	}
	sh := m.shards[si]
	fi = sort.Search(len(sh.frags), func(i int) bool { return sh.frags[i].R.End() > addr })
	return si, fi
}

// Overlapping returns the fragments overlapping r in address order,
// without mutating the index. The returned pointers stay valid (fragments
// are never removed) but their regions shrink if a later split lands
// inside them.
func (m *FragMap[V]) Overlapping(r Region) []*Frag[V] {
	return m.OverlappingInto(r, nil)
}

// OverlappingInto is Overlapping appending into out[:0], so a caller that
// keeps the returned slice across calls pays no allocation in steady
// state. The hot paths (dependence resolution, directory updates) call
// this once per task; a fresh slice per call was a measurable share of
// million-task submission cost.
func (m *FragMap[V]) OverlappingInto(r Region, out []*Frag[V]) []*Frag[V] {
	out = out[:0]
	si, fi := m.locate(r.Addr)
	for ; si < len(m.shards); si, fi = si+1, 0 {
		for _, f := range m.shards[si].frags[fi:] {
			if f.R.Addr >= r.End() {
				return out
			}
			out = append(out, f)
		}
	}
	return out
}

// All returns every fragment in address order.
func (m *FragMap[V]) All() []*Frag[V] {
	out := make([]*Frag[V], 0, m.n)
	for _, sh := range m.shards {
		out = append(out, sh.frags...)
	}
	return out
}

// cloneV copies a payload for a split.
func (m *FragMap[V]) cloneV(v V) V {
	if m.clone == nil {
		return v
	}
	return m.clone(v)
}

// freshV builds a gap payload.
func (m *FragMap[V]) freshV() V {
	if m.fresh == nil {
		var zero V
		return zero
	}
	return m.fresh()
}

// SplitAt splits the fragment strictly containing addr into two fragments
// meeting at addr, giving the left half a cloned payload. No-op when addr
// falls on a fragment boundary or outside every fragment.
func (m *FragMap[V]) SplitAt(addr uint64) {
	si, fi := m.locate(addr)
	if si == len(m.shards) {
		return
	}
	sh := m.shards[si]
	if fi == len(sh.frags) {
		return
	}
	f := sh.frags[fi]
	if f.R.Addr >= addr {
		return
	}
	end := f.R.End()
	left := &Frag[V]{
		R: Region{Addr: f.R.Addr, Size: addr - f.R.Addr},
		V: m.cloneV(f.V),
	}
	f.R = Region{Addr: addr, Size: end - addr}
	sh.frags = append(sh.frags, nil)
	copy(sh.frags[fi+1:], sh.frags[fi:])
	sh.frags[fi] = left
	m.n++
	m.rebalance(si)
}

// insertAt places f as a new fragment at global position (si, fi). The
// caller guarantees disjointness and order.
func (m *FragMap[V]) insertAt(si, fi int, f *Frag[V]) {
	if len(m.shards) == 0 {
		m.shards = []*fragShard[V]{{frags: []*Frag[V]{f}}}
		m.ends = []uint64{f.R.End()}
		m.n++
		return
	}
	if si == len(m.shards) {
		// Past every shard: append to the last one.
		si = len(m.shards) - 1
		fi = len(m.shards[si].frags)
	}
	sh := m.shards[si]
	sh.frags = append(sh.frags, nil)
	copy(sh.frags[fi+1:], sh.frags[fi:])
	sh.frags[fi] = f
	m.ends[si] = sh.end()
	m.n++
	m.rebalance(si)
}

// rebalance splits shard si once it outgrows shardMax, into chunks of
// about shardMax/2 so steady-state inserts have headroom. A batched
// rebuild can overshoot by hundreds of fragments at once, so the split is
// n-way, not binary.
func (m *FragMap[V]) rebalance(si int) {
	sh := m.shards[si]
	if len(sh.frags) <= shardMax {
		return
	}
	target := shardMax / 2
	nchunks := (len(sh.frags) + target - 1) / target
	chunk := (len(sh.frags) + nchunks - 1) / nchunks
	frags := sh.frags
	repl := make([]*fragShard[V], 0, nchunks)
	for lo := 0; lo < len(frags); lo += chunk {
		hi := lo + chunk
		if hi > len(frags) {
			hi = len(frags)
		}
		repl = append(repl, &fragShard[V]{frags: append([]*Frag[V](nil), frags[lo:hi]...)})
	}
	grown := make([]*fragShard[V], 0, len(m.shards)+len(repl)-1)
	grown = append(grown, m.shards[:si]...)
	grown = append(grown, repl...)
	grown = append(grown, m.shards[si+1:]...)
	m.shards = grown
	ends := make([]uint64, 0, len(grown))
	ends = append(ends, m.ends[:si]...)
	for _, s := range repl {
		ends = append(ends, s.end())
	}
	ends = append(ends, m.ends[si+1:]...)
	m.ends = ends
}

// Cover returns the fragments exactly tiling r in address order, splitting
// existing fragments at r's bounds and creating fresh-payload fragments
// for uncovered gaps. A region that never partially overlaps another maps
// to a single fragment equal to itself.
func (m *FragMap[V]) Cover(r Region) []*Frag[V] {
	return m.CoverInto(r, nil)
}

// CoverInto is Cover appending into out[:0] (see OverlappingInto). After
// the two boundary splits it walks fragments forward instead of paying a
// two-level binary search per covered fragment; only a gap insert (which
// may rebalance shards) re-locates.
func (m *FragMap[V]) CoverInto(r Region, out []*Frag[V]) []*Frag[V] {
	out = out[:0]
	m.SplitAt(r.Addr)
	m.SplitAt(r.End())
	pos := r.Addr
	si, fi := m.locate(pos)
	for pos < r.End() {
		for si < len(m.shards) && fi >= len(m.shards[si].frags) {
			si, fi = si+1, 0
		}
		var f *Frag[V]
		if si < len(m.shards) {
			f = m.shards[si].frags[fi]
		}
		if f != nil && f.R.Addr == pos {
			out = append(out, f)
			pos = f.R.End()
			fi++
			continue
		}
		gapEnd := r.End()
		if f != nil && f.R.Addr < gapEnd {
			gapEnd = f.R.Addr
		}
		nf := &Frag[V]{R: Region{Addr: pos, Size: gapEnd - pos}, V: m.freshV()}
		m.insertAt(si, fi, nf)
		out = append(out, nf)
		pos = gapEnd
		// The insert may have split a shard; recompute the walk position.
		si, fi = m.locate(pos)
	}
	return out
}
