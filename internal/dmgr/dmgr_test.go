package dmgr

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// TestSpansPartitionExactly checks that span decomposition partitions any
// region exactly: address-ordered, gap-free, and owner-consistent with
// Owner on every block.
func TestSpansPartitionExactly(t *testing.T) {
	m := NewMap(5, 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := memspace.Region{
			Addr: uint64(rng.Intn(1 << 22)),
			Size: uint64(1 + rng.Intn(1<<21)),
		}
		spans := m.Spans(r)
		addr := r.Addr
		for _, sp := range spans {
			if sp.R.Addr != addr {
				t.Fatalf("region %v: span %v starts at %#x, want %#x", r, sp, sp.R.Addr, addr)
			}
			if sp.Shard != m.Owner(sp.R.Addr) {
				t.Fatalf("region %v: span %v owner mismatch", r, sp)
			}
			// Every block inside the span must agree on the owner.
			for b := sp.R.Addr >> OwnBlockBits; b <= (sp.R.End()-1)>>OwnBlockBits; b++ {
				if m.Owner(b<<OwnBlockBits) != sp.Shard {
					t.Fatalf("region %v: span %v contains block %d owned by %d", r, sp, b, m.Owner(b<<OwnBlockBits))
				}
			}
			addr = sp.R.End()
		}
		if addr != r.End() {
			t.Fatalf("region %v: spans end at %#x, want %#x", r, addr, r.End())
		}
	}
}

// TestSpansCoalesceAndSingleShard checks the two degenerate shapes: a
// 1-shard map yields one span, and runs of same-owner blocks coalesce.
func TestSpansCoalesceAndSingleShard(t *testing.T) {
	one := NewMap(1, 8)
	r := memspace.Region{Addr: 123, Size: 10 * BlockSize}
	if spans := one.Spans(r); len(spans) != 1 || spans[0].R != r || spans[0].Shard != 0 {
		t.Fatalf("1-shard spans = %v, want [{%v 0}]", spans, r)
	}
	many := NewMap(4, 8)
	spans := many.Spans(memspace.Region{Addr: 0, Size: 64 * BlockSize})
	for i := 1; i < len(spans); i++ {
		if spans[i].Shard == spans[i-1].Shard {
			t.Fatalf("adjacent spans %v and %v share a shard — not coalesced", spans[i-1], spans[i])
		}
	}
}

func TestMapHostsAndReassign(t *testing.T) {
	m := NewMap(4, 8)
	if m.Host(0) != 0 {
		t.Fatalf("shard 0 hosted on %d, want master (0)", m.Host(0))
	}
	want := []int{0, 2, 4, 6}
	for s := 0; s < 4; s++ {
		if m.Host(s) != want[s] {
			t.Fatalf("Host(%d) = %d, want %d", s, m.Host(s), want[s])
		}
	}
	if got := m.ManagerNodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ManagerNodes = %v, want %v", got, want)
	}
	m.Reassign(2, 0)
	if m.Host(2) != 0 {
		t.Fatalf("Reassign did not move shard 2")
	}
	if got := m.ManagerNodes(); !reflect.DeepEqual(got, []int{0, 2, 6}) {
		t.Fatalf("ManagerNodes after failover = %v", got)
	}
	if got := m.HostedOn(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("HostedOn(0) = %v", got)
	}
}

// TestModelFCFS checks the serial-service queue: back-to-back requests on
// one shard serialize, requests on different shards don't, and remote
// callers pay the round trip.
func TestModelFCFS(t *testing.T) {
	m := NewMap(2, 4)
	md := NewModel(m, 2*time.Microsecond, 10*time.Microsecond, nil, nil)
	us := int64(time.Microsecond)
	if end := md.Serve(0, 0, 3); int64(end) != 6*us {
		t.Fatalf("first Serve end = %d, want 6us", end)
	}
	// Arrives at t=2us while the queue is busy until 6us: starts at 6.
	if end := md.Serve(2*1000, 0, 1); int64(end) != 8*us {
		t.Fatalf("queued Serve end = %d, want 8us", end)
	}
	// Other shard is idle: starts immediately.
	if end := md.Serve(2*1000, 1, 1); int64(end) != 2*us+2*us {
		t.Fatalf("parallel shard end = %d, want 4us", end)
	}
	// Shard 1 hosted on node 2; a caller on node 0 pays 2 hops.
	if end := md.ServeFrom(100*1000, 0, 1, 1); int64(end) != (100+2+20)*us {
		t.Fatalf("remote ServeFrom end = %d, want 122us", end)
	}
	// Local caller pays no hops.
	if end := md.ServeFrom(200*1000, 2, 1, 1); int64(end) != (200+2)*us {
		t.Fatalf("local ServeFrom end = %d, want 202us", end)
	}
}

// directoryOps drives the same operation sequence against any directory
// implementation and collects every observable answer.
type dirAPI interface {
	TrackProducers(memspace.Location)
	RecordProducer(memspace.Region, *task.Task)
	Producers(memspace.Region) []*task.Task
	Init(memspace.Region, memspace.Location)
	Produced(memspace.Region, memspace.Location)
	AddHolder(memspace.Region, memspace.Location)
	PurgeNode(int) []memspace.Region
	Rehome(memspace.Region)
	DropHolder(memspace.Region, memspace.Location)
	IsHolder(memspace.Region, memspace.Location) bool
	Known(memspace.Region) bool
	Missing(memspace.Region, memspace.Location) []memspace.Region
	Held(memspace.Region, memspace.Location) []memspace.Region
	HeldBytes(memspace.Region, memspace.Location) uint64
	Version(memspace.Region) int
	Holders(memspace.Region) []memspace.Location
	Regions() []memspace.Region
}

// TestDirectoryEquivalence runs a randomized overlapping workload through
// a single coherence.Directory and the 4-shard partitioned directory and
// requires identical answers to every query. Byte-range answers (Missing/
// Held) are compared by total coverage, since the partitioned directory
// may cut the same byte set at ownership-block boundaries.
func TestDirectoryEquivalence(t *testing.T) {
	single := coherence.NewDirectory()
	m := NewMap(4, 8)
	parted := NewDirectory(m)
	dirs := []dirAPI{single, parted}
	for _, d := range dirs {
		d.TrackProducers(memspace.Host(0))
	}

	rng := rand.New(rand.NewSource(42))
	region := func() memspace.Region {
		// Regions sized up to ~3 blocks so most cross an ownership edge.
		return memspace.Region{
			Addr: uint64(rng.Intn(1 << 20)),
			Size: uint64(256 + rng.Intn(3*int(BlockSize))),
		}
	}
	loc := func() memspace.Location {
		n := rng.Intn(4)
		if rng.Intn(2) == 0 {
			return memspace.Host(n)
		}
		return memspace.GPU(n, 0)
	}
	sumBytes := func(rs []memspace.Region) uint64 {
		var n uint64
		for _, r := range rs {
			n += r.Size
		}
		return n
	}

	// Seed some known regions so AddHolder has fragments to land on.
	var known []memspace.Region
	for i := 0; i < 20; i++ {
		r := region()
		known = append(known, r)
		for _, d := range dirs {
			d.Init(r, memspace.Host(0))
		}
	}
	taskSeq := 0
	for step := 0; step < 2000; step++ {
		r := known[rng.Intn(len(known))]
		l := loc()
		switch rng.Intn(8) {
		case 0:
			for _, d := range dirs {
				d.Produced(r, l)
			}
			if l != memspace.Host(0) {
				taskSeq++
				tk := &task.Task{ID: task.ID(taskSeq)}
				for _, d := range dirs {
					d.RecordProducer(r, tk)
				}
			}
		case 1:
			// AddHolder requires a current-version copy to exist; guard
			// with Known the way the runtime's staging path does.
			if single.Known(r) {
				for _, d := range dirs {
					d.AddHolder(r, l)
				}
			}
		case 2:
			// Drop only when both will keep a holder (DropHolder panics
			// dropping the last copy); skip otherwise.
			hs := single.Holders(r)
			if len(hs) > 1 {
				for _, d := range dirs {
					d.DropHolder(r, hs[0])
				}
			}
		case 3:
			for _, d := range dirs {
				d.Rehome(r)
			}
		case 4:
			node := rng.Intn(4)
			a := single.PurgeNode(node)
			b := parted.PurgeNode(node)
			if sumBytes(a) != sumBytes(b) {
				t.Fatalf("step %d: PurgeNode(%d) lost %d vs %d bytes", step, node, sumBytes(a), sumBytes(b))
			}
			// Purge can orphan fragments; re-seed them so later AddHolder
			// calls stay legal on both.
			for _, lr := range a {
				for _, d := range dirs {
					d.Init(lr, memspace.Host(0))
				}
			}
		}
		// A failover charges one rebuild op per owner span of the single
		// directory's fragments: that must be each shard's own fragment
		// count in the partitioned directory.
		spans := make([]int, m.Shards())
		for _, r := range single.Regions() {
			for _, sp := range m.Spans(r) {
				spans[sp.Shard]++
			}
		}
		for s, n := range spans {
			if f := parted.ShardFragments(s); n != f {
				t.Fatalf("step %d: shard %d: %d owner spans, ShardFragments = %d", step, s, n, f)
			}
		}
		// Cross-check the full query surface on a random (often
		// different) known region.
		q := known[rng.Intn(len(known))]
		ql := loc()
		if a, b := single.IsHolder(q, ql), parted.IsHolder(q, ql); a != b {
			t.Fatalf("step %d: IsHolder(%v,%v) = %v vs %v", step, q, ql, a, b)
		}
		if a, b := single.Known(q), parted.Known(q); a != b {
			t.Fatalf("step %d: Known(%v) = %v vs %v", step, q, a, b)
		}
		if a, b := single.Version(q), parted.Version(q); a != b {
			t.Fatalf("step %d: Version(%v) = %d vs %d", step, q, a, b)
		}
		if a, b := single.HeldBytes(q, ql), parted.HeldBytes(q, ql); a != b {
			t.Fatalf("step %d: HeldBytes(%v,%v) = %d vs %d", step, q, ql, a, b)
		}
		if a, b := sumBytes(single.Missing(q, ql)), sumBytes(parted.Missing(q, ql)); a != b {
			t.Fatalf("step %d: Missing(%v,%v) covers %d vs %d bytes", step, q, ql, a, b)
		}
		for _, piece := range parted.Missing(q, ql) {
			if len(parted.Holders(piece)) == 0 {
				t.Fatalf("step %d: Missing(%v,%v) piece %v has no holder", step, q, ql, piece)
			}
		}
		if a, b := sumBytes(single.Held(q, ql)), sumBytes(parted.Held(q, ql)); a != b {
			t.Fatalf("step %d: Held(%v,%v) covers %d vs %d bytes", step, q, ql, a, b)
		}
		if a, b := single.Holders(q), parted.Holders(q); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: Holders(%v) = %v vs %v", step, q, a, b)
		}
		pa, pb := single.Producers(q), parted.Producers(q)
		if len(pa) != len(pb) {
			t.Fatalf("step %d: Producers(%v) len %d vs %d", step, q, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].ID != pb[i].ID {
				t.Fatalf("step %d: Producers(%v)[%d] = %v vs %v", step, q, i, pa[i].ID, pb[i].ID)
			}
		}
	}
	if sumA, sumB := regionsBytes(single.Regions()), regionsBytes(parted.Regions()); sumA != sumB {
		t.Fatalf("Regions cover %d vs %d bytes", sumA, sumB)
	}
}

// TestMissingPiecesHaveAHolder: the caller fetches each piece Missing
// returns from one of its Holders, so every piece must be held in full
// somewhere. One fragment cut at an ownership-block edge still comes back
// as one piece; two neighbouring fragments with different holders come
// back as two, as they do from the centralized directory.
func TestMissingPiecesHaveAHolder(t *testing.T) {
	m := NewMap(4, 8)
	r := memspace.Region{Addr: BlockSize - 4096, Size: 8192}
	if spans := m.Spans(r); len(spans) != 2 {
		t.Fatalf("region %v spans %v, want two shards", r, spans)
	}
	single := coherence.NewDirectory()
	parted := NewDirectory(m)
	dirs := []dirAPI{single, parted}
	for _, d := range dirs {
		d.Init(r, memspace.Host(0))
	}
	if got := parted.Missing(r, memspace.Host(3)); len(got) != 1 || got[0] != r {
		t.Fatalf("Missing over one fragment cut at a block edge = %v, want [%v]", got, r)
	}
	left := memspace.Region{Addr: r.Addr, Size: 4096}
	right := memspace.Region{Addr: BlockSize, Size: 4096}
	for _, d := range dirs {
		d.Produced(left, memspace.GPU(1, 0))
		d.Produced(right, memspace.GPU(2, 0))
	}
	for i, d := range dirs {
		got := d.Missing(r, memspace.Host(3))
		if len(got) != 2 || got[0] != left || got[1] != right {
			t.Fatalf("directory %d: Missing = %v, want [%v %v]", i, got, left, right)
		}
		for _, piece := range got {
			if len(d.Holders(piece)) == 0 {
				t.Fatalf("directory %d: piece %v has no holder", i, piece)
			}
		}
	}
}

func regionsBytes(rs []memspace.Region) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Size
	}
	return n
}
