package dmgr

import (
	"sort"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// Directory is a coherence directory partitioned across manager shards:
// the replay subject of the benchmark's dmgr layer. The runtime does not
// use it — its master keeps one coherence.Directory and prices operations
// with Map and Model — and its fragment count per shard equals the
// number of that one directory's fragment spans (Map.Spans) the shard
// owns. Shard s owns the fragments of the address blocks the Map assigns
// it; every operation decomposes its region into per-shard spans (address
// order) and applies the single-directory operation to each owning shard.
// Because shards partition the address space exactly and spans are walked
// in address order, the reassembled behavior matches a single
// coherence.Directory operation for operation — only fragment boundaries
// can be finer (cut at ownership-block edges), which changes no holder,
// version, or producer state.
type Directory struct {
	m       *Map
	shards  []*coherence.Directory
	spanbuf []Span
}

// NewDirectory builds an empty partitioned directory over m's shards.
func NewDirectory(m *Map) *Directory {
	d := &Directory{m: m, shards: make([]*coherence.Directory, m.Shards())}
	for s := range d.shards {
		d.shards[s] = coherence.NewDirectory()
	}
	return d
}

// Map returns the shard map the directory partitions over.
func (d *Directory) Map() *Map { return d.m }

// ShardFragments returns shard s's fragment count (failover rebuild cost).
func (d *Directory) ShardFragments(s int) int { return d.shards[s].Fragments() }

// spans caches the decomposition of r for the duration of one operation.
func (d *Directory) spans(r memspace.Region) []Span {
	d.spanbuf = d.m.SpansInto(r, d.spanbuf)
	return d.spanbuf
}

// TrackProducers starts producer-chain logging on every shard.
func (d *Directory) TrackProducers(home memspace.Location) {
	for _, sh := range d.shards {
		sh.TrackProducers(home)
	}
}

// RecordProducer appends t to the producer chains of r's fragments.
func (d *Directory) RecordProducer(r memspace.Region, t *task.Task) {
	for _, sp := range d.spans(r) {
		d.shards[sp.Shard].RecordProducer(sp.R, t)
	}
}

// Producers returns the union of producer chains over r, deduplicated by
// task, fragments visited in address order across shard spans.
func (d *Directory) Producers(r memspace.Region) []*task.Task {
	var out []*task.Task
	seen := make(map[task.ID]bool)
	for _, sp := range d.spans(r) {
		for _, t := range d.shards[sp.Shard].Producers(sp.R) {
			if !seen[t.ID] {
				seen[t.ID] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Init declares loc the initial holder of r.
func (d *Directory) Init(r memspace.Region, loc memspace.Location) {
	for _, sp := range d.spans(r) {
		d.shards[sp.Shard].Init(sp.R, loc)
	}
}

// Produced registers a new version of r produced at loc.
func (d *Directory) Produced(r memspace.Region, loc memspace.Location) {
	for _, sp := range d.spans(r) {
		d.shards[sp.Shard].Produced(sp.R, loc)
	}
}

// AddHolder records a copy of r at loc. Panics only when no shard knows
// any byte of r, mirroring the single-directory invariant.
func (d *Directory) AddHolder(r memspace.Region, loc memspace.Location) {
	known := false
	for _, sp := range d.spans(r) {
		if d.shards[sp.Shard].AddHolderPartial(sp.R, loc) {
			known = true
		}
	}
	if !known {
		panic("dmgr: AddHolder for unknown region")
	}
}

// PurgeNode removes every holder on node across all shards and returns
// the fragments left holderless, merged into global address order.
func (d *Directory) PurgeNode(node int) []memspace.Region {
	var lost []memspace.Region
	for _, sh := range d.shards {
		lost = append(lost, sh.PurgeNode(node)...)
	}
	// Per-shard lists are address-sorted but interleave across shards;
	// fragments are disjoint, so sorting by address is a total order.
	sort.Slice(lost, func(i, j int) bool { return lost[i].Addr < lost[j].Addr })
	return lost
}

// Rehome resets r's fragments to the home location.
func (d *Directory) Rehome(r memspace.Region) {
	for _, sp := range d.spans(r) {
		d.shards[sp.Shard].Rehome(sp.R)
	}
}

// DropHolder removes loc from r's holder sets.
func (d *Directory) DropHolder(r memspace.Region, loc memspace.Location) {
	for _, sp := range d.spans(r) {
		d.shards[sp.Shard].DropHolder(sp.R, loc)
	}
}

// IsHolder reports whether loc holds the current version of every byte
// of r: true iff it holds every span.
func (d *Directory) IsHolder(r memspace.Region, loc memspace.Location) bool {
	for _, sp := range d.spans(r) {
		if !d.shards[sp.Shard].IsHolder(sp.R, loc) {
			return false
		}
	}
	return true
}

// Known reports whether any byte of r has a holder on any shard.
func (d *Directory) Known(r memspace.Region) bool {
	for _, sp := range d.spans(r) {
		if d.shards[sp.Shard].Known(sp.R) {
			return true
		}
	}
	return false
}

// coalesce merges abutting byte ranges in place, a merge going ahead only
// when ok (if non-nil) accepts the merged range. The shard decomposition
// cuts fragments at ownership-block edges; the reassembled Missing/Held
// answers must not leak those cuts to callers: the cluster layer ships
// one transfer per returned piece, and splitting what the centralized
// directory reports as one piece into two would let a mid-staging crash
// land between the halves — holder state diverging across halves of one
// logical fragment, which the producer-chain recovery protocol (built on
// holder-uniform fragments) double-applies producers to.
func coalesce(rs []memspace.Region, ok func(memspace.Region) bool) []memspace.Region {
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && out[n-1].End() == r.Addr {
			merged := memspace.Region{Addr: out[n-1].Addr, Size: out[n-1].Size + r.Size}
			if ok == nil || ok(merged) {
				out[n-1] = merged
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// Missing returns the byte ranges of r that loc does not hold, in address
// order across shard spans. Abutting pieces are merged while some location
// still holds all of the merged range: the caller fetches each piece from
// one of its Holders, so two neighbouring fragments with no common holder
// stay two pieces, as the centralized directory reports them.
func (d *Directory) Missing(r memspace.Region, loc memspace.Location) []memspace.Region {
	var out []memspace.Region
	for _, sp := range d.spans(r) {
		out = append(out, d.shards[sp.Shard].Missing(sp.R, loc)...)
	}
	return coalesce(out, func(m memspace.Region) bool { return len(d.Holders(m)) > 0 })
}

// Held returns the byte ranges of r that loc does hold, in address order,
// abutting pieces merged.
func (d *Directory) Held(r memspace.Region, loc memspace.Location) []memspace.Region {
	var out []memspace.Region
	for _, sp := range d.spans(r) {
		out = append(out, d.shards[sp.Shard].Held(sp.R, loc)...)
	}
	return coalesce(out, nil)
}

// HeldBytes returns how many bytes of r loc holds.
func (d *Directory) HeldBytes(r memspace.Region, loc memspace.Location) uint64 {
	var n uint64
	for _, sp := range d.spans(r) {
		n += d.shards[sp.Shard].HeldBytes(sp.R, loc)
	}
	return n
}

// Version returns the maximum fragment version over r.
func (d *Directory) Version(r memspace.Region) int {
	v := 0
	for _, sp := range d.spans(r) {
		if sv := d.shards[sp.Shard].Version(sp.R); sv > v {
			v = sv
		}
	}
	return v
}

// Holders returns the locations holding the current version of every
// byte of r: the holder set of the first overlapping fragment (first
// span, in address order, that has one) filtered by full-region
// coverage — the single-directory semantics reassembled across spans.
func (d *Directory) Holders(r memspace.Region) []memspace.Location {
	// d.spans' buffer is reused by the IsHolder calls below; copy first.
	spans := append([]Span(nil), d.spans(r)...)
	for _, sp := range spans {
		cand, ok := d.shards[sp.Shard].CandidateHolders(sp.R)
		if !ok {
			continue
		}
		var out []memspace.Location
		for _, l := range cand {
			if d.IsHolder(r, l) {
				out = append(out, l)
			}
		}
		return out
	}
	return nil
}

// Regions returns every fragment known to any shard, merged into global
// address order.
func (d *Directory) Regions() []memspace.Region {
	var out []memspace.Region
	for _, sh := range d.shards {
		out = append(out, sh.Regions()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Fragments returns the total fragment count across shards.
func (d *Directory) Fragments() int {
	n := 0
	for _, sh := range d.shards {
		n += sh.Fragments()
	}
	return n
}
