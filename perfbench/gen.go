package main

import (
	"encoding/binary"
	"math/rand"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// Seeds. DefaultSeed is what a run without --seed uses; HeldOutSeed is
// kept out of tuning so a claimed gain can be re-checked on inputs it was
// not written against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

const word = 8 // every kernel works on little-endian uint64 words

// ref names a byte range of one of the program's arrays; it resolves to
// a Region once the arrays are allocated.
type ref struct {
	arr       int
	off, size uint64
}

// genTask is one task of a generated program: what it reads, what it
// writes, which kernel it runs and what the kernel costs.
type genTask struct {
	dev   task.Device
	reads []ref
	write ref
	inout bool // write is InOut (read-modify-write) rather than Out
	kind  kernelKind
	cost  time.Duration
	salt  uint64
}

// program is one generated runtime workload: the machine configuration,
// the arrays the program allocates, and the task stream the runtime
// receives. Nothing else reaches the runtime.
type program struct {
	name   string
	cfg    ompss.Config // cost-only; runs set Validate or Trace on a copy
	arrays []uint64     // sizes, allocated in order
	tasks  []genTask
	layers []int // index of each layer's first task, for batched submission
	batch  bool  // submit each layer with TaskBatch instead of Task
	check  []int // arrays whose final bytes form the result checksum
}

// places is the number of scheduling places at the level tasks are bound:
// nodes on a cluster, GPUs on a single node.
func (pg *program) places() int {
	if nodes := pg.cfg.Cluster.Nodes; len(nodes) > 1 {
		return len(nodes)
	}
	return len(pg.cfg.Cluster.Nodes[0].GPUs)
}

// Every generator draws its inputs as seeded permutations of fixed
// multisets (neighbour offsets, block sizes, task costs): a new seed gives
// a different program with the same aggregate shape, so seeds differ in
// inputs rather than in how much work they ask for.

// scale selects workload sizes: full for measurement, tiny for tests.
type scale struct {
	xchgBlocks, xchgSteps   int
	haloBlocks, haloSteps   int
	chainsPerNode, chainLen int
	serveRequests           int
}

var scales = map[string]scale{
	"full": {xchgBlocks: 256, xchgSteps: 8, haloBlocks: 160, haloSteps: 10,
		chainsPerNode: 4, chainLen: 20, serveRequests: 1000},
	"tiny": {xchgBlocks: 16, xchgSteps: 2, haloBlocks: 8, haloSteps: 2,
		chainsPerNode: 1, chainLen: 3, serveRequests: 40},
}

// bases resolves the program's arrays to regions exactly as the runtime's
// allocator lays them out, so replays see the runtime's addresses.
func (pg *program) bases() []memspace.Region {
	a := memspace.NewAllocator()
	out := make([]memspace.Region, len(pg.arrays))
	for i, sz := range pg.arrays {
		out[i] = a.Alloc(sz, 0)
	}
	return out
}

func (r ref) region(bases []memspace.Region) memspace.Region {
	return memspace.Region{Addr: bases[r.arr].Addr + r.off, Size: r.size}
}

// kernelOf builds the task body of t over the resolved arrays.
func (t *genTask) kernelOf(bases []memspace.Region) kernel {
	k := kernel{kind: t.kind, out: t.write.region(bases), cost: t.cost, salt: t.salt}
	if len(t.reads) > 0 {
		k.a = t.reads[0].region(bases)
	}
	if len(t.reads) > 1 {
		k.b = t.reads[1].region(bases)
	}
	return k
}

// cluster8Exchange is the double-buffered block update on eight GPU
// nodes: every step, each block's CUDA task reads its own block and a
// seeded neighbour's block of the current array and writes its own block
// of the next one. Regions always match exactly, so no fragment ever
// splits; the cluster path (dispatch, messages, remote caches) does the
// work.
func cluster8Exchange(seed int64, sc scale) *program {
	rng := rand.New(rand.NewSource(seed))
	const blockWords = 4096
	nb := sc.xchgBlocks
	bsz := uint64(blockWords * word)
	pg := &program{
		name: "cluster8-exchange",
		cfg: ompss.Config{
			Cluster:          hw.GPUCluster(8),
			Scheduler:        sched.Affinity,
			CachePolicy:      ompss.WriteBack,
			NonBlockingCache: true,
			Steal:            true,
			Presend:          1,
			SlaveToSlave:     true,
		},
		arrays: []uint64{uint64(nb) * bsz, uint64(nb) * bsz},
		check:  []int{sc.xchgSteps % 2},
	}
	blk := func(arr, j int) ref { return ref{arr: arr, off: uint64(j) * bsz, size: bsz} }
	for j := 0; j < nb; j++ {
		pg.tasks = append(pg.tasks, genTask{dev: task.CUDA, write: blk(0, j), kind: kInit,
			cost: 20 * time.Microsecond, salt: uint64(j)})
	}
	offsets := []int{-2, -1, 1, 2}
	for s := 0; s < sc.xchgSteps; s++ {
		cur, nxt := s%2, (s+1)%2
		offs, costs := rng.Perm(nb), rng.Perm(nb)
		for j := 0; j < nb; j++ {
			n := (j + offsets[offs[j]%len(offsets)] + nb) % nb
			pg.tasks = append(pg.tasks, genTask{dev: task.CUDA,
				reads: []ref{blk(cur, j), blk(cur, n)}, write: blk(nxt, j), kind: kExchange,
				cost: time.Duration(40000+costs[j]*20000/nb) * time.Nanosecond})
		}
	}
	return pg
}

// node4Halo is a 1-D Jacobi stencil on one four-GPU node with seeded,
// uneven block sizes: each step task reads its block of the current array
// plus one halo cell on each interior side — regions that partially
// overlap the neighbouring writers — and writes its block of the next.
func node4Halo(seed int64, sc scale) *program {
	rng := rand.New(rand.NewSource(seed))
	nb := sc.haloBlocks
	sizes := make([]int, nb)
	starts := make([]int, nb)
	n := 0
	for j, p := range rng.Perm(nb) {
		sizes[j] = 512 + p*1024/nb
		starts[j] = n
		n += sizes[j]
	}
	pg := &program{
		name:   "node4-halo",
		cfg:    ompss.Config{Cluster: hw.MultiGPUSystem(4)},
		arrays: []uint64{uint64(n) * word, uint64(n) * word},
		check:  []int{sc.haloSteps % 2},
	}
	cells := func(arr, i0, cnt int) ref {
		return ref{arr: arr, off: uint64(i0) * word, size: uint64(cnt) * word}
	}
	for j := 0; j < nb; j++ {
		pg.tasks = append(pg.tasks, genTask{dev: task.CUDA, write: cells(0, starts[j], sizes[j]),
			kind: kInit, cost: 10 * time.Microsecond, salt: uint64(starts[j])})
	}
	for s := 0; s < sc.haloSteps; s++ {
		cur, nxt := s%2, (s+1)%2
		for j := 0; j < nb; j++ {
			lh, rh := 0, 0
			if j > 0 {
				lh = 1
			}
			if j < nb-1 {
				rh = 1
			}
			pg.tasks = append(pg.tasks, genTask{dev: task.CUDA,
				reads: []ref{cells(cur, starts[j]-lh, sizes[j]+lh+rh)},
				write: cells(nxt, starts[j], sizes[j]), kind: kHalo,
				cost: time.Duration(sizes[j]*20) * time.Nanosecond})
		}
	}
	return pg
}

// shard64Batch is the weak-scaling chain shape on 64 nodes with sixteen
// manager shards and a charged manager service time: independent SMP
// chains over per-chain ownership blocks, submitted one layer at a time
// through TaskBatch.
func shard64Batch(seed int64, sc scale) *program {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 64
	const chainBytes = 1 << 18 // one ownership block per chain
	nchains := nodes * sc.chainsPerNode
	pg := &program{
		name: "shard64-batch",
		cfg: ompss.Config{
			Cluster:       hw.GPUCluster(nodes),
			Scheduler:     sched.BreadthFirst,
			SlaveToSlave:  true,
			CommThreads:   4,
			CPUWorkers:    2,
			ManagerShards: 16,
			ManagerOpCost: 2 * time.Microsecond,
		},
		batch: true,
	}
	deps := make([]ref, nchains)
	depSizes := []uint64{128, 256, 512}
	for i, p := range rng.Perm(nchains) {
		pg.arrays = append(pg.arrays, chainBytes)
		pg.check = append(pg.check, i)
		deps[i] = ref{arr: i, size: depSizes[p%len(depSizes)]}
	}
	for d := 0; d < sc.chainLen; d++ {
		pg.layers = append(pg.layers, len(pg.tasks))
		costs := rng.Perm(nchains)
		for i, r := range deps {
			t := genTask{dev: task.SMP, write: r, kind: kChain, inout: true,
				cost: time.Duration(15000+costs[i]*10000/nchains) * time.Nanosecond, salt: uint64(d*nchains + i)}
			if d == 0 {
				t.kind, t.inout = kInit, false
			}
			pg.tasks = append(pg.tasks, t)
		}
	}
	return pg
}

var programs = map[string]func(seed int64, sc scale) *program{
	"cluster8-exchange": cluster8Exchange,
	"node4-halo":        node4Halo,
	"shard64-batch":     shard64Batch,
}

// fnvHash is FNV-1a over 64-bit words.
type fnvHash struct{ sum uint64 }

func newHash() *fnvHash { return &fnvHash{sum: 14695981039346656037} }

func (h *fnvHash) add(vs ...uint64) {
	for _, v := range vs {
		h.sum ^= v
		h.sum *= 1099511628211
	}
}

func (h *fnvHash) addBytes(b []byte) {
	for len(b) >= word {
		h.add(binary.LittleEndian.Uint64(b))
		b = b[word:]
	}
}
