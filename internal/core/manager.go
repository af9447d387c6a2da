package core

import (
	"github.com/bsc-repro/ompss/internal/dmgr"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// Distributed managers (DESIGN.md §13). The centralized runtime funnels
// every dependence lookup and every coherence-directory operation through
// the master — the classic single-manager bottleneck. When
// Config.ManagerShards > 1 the directory is partitioned across N manager
// shards by block ownership (dmgr.Map), each shard hosted on a cluster
// node; dependence lookups are charged to the shards owning each clause's
// bytes (mgrChargeSubmit) while the dependence graph itself stays one
// map; and slave-to-slave transfers become the default data path with
// the owning shard only brokering metadata.
//
// The split is "state-immediate, cost-deferred": bookkeeping transitions
// are applied exactly as in the centralized runtime (which is why results
// stay checksum-exact between centralized and sharded runs, and why
// shards=1 stays bit-identical), while Config.ManagerOpCost arms a
// virtual-time service model — each shard an FCFS serial queue — that
// makes the caller of a blocking query sleep until the owning shard has
// served it. One centralized queue saturates; N queues scale. That
// difference is what `ompss-bench -experiment weakscale` measures.

// Per-operation weights of the service model, in shard-queue operations
// per decomposed span.
const (
	// opsSubmitPerSpan: one conflict lookup plus one bookkeeping update
	// per fragment span of each dependence clause at submission.
	opsSubmitPerSpan = 2
	// opsProducedPerSpan: the version bump + holder reset (and producer
	// log append) when a task's output is produced.
	opsProducedPerSpan = 1
	// opsStagePerSpan: the Missing + Holders queries the transfer planner
	// issues per region staged to a node.
	opsStagePerSpan = 2
	// opsRebuildPerFrag: per-fragment cost of rebuilding a failed
	// manager's directory slice on its new host.
	opsRebuildPerFrag = 1
)

// amDirOp is the control active message that carries a routed directory
// operation to a remote shard host in sharded mode. The state transition
// itself is applied at the master image (state-immediate); the message
// makes the metadata routing visible on the simulated fabric and is
// counted by the shard host. Best-effort like the heartbeat: a lost
// datagram loses nothing but a counter increment.
const amDirOp = "dirop"

// directory is the coherence-directory surface the runtime drives.
// Satisfied by both coherence.Directory (per-node images, centralized
// master) and dmgr.Directory (the sharded master).
type directory interface {
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
	Fragments() int
}

// mgrState is the distributed-manager state. Nil unless ManagerShards > 1
// or ManagerOpCost > 0; every sharded/charging path is gated on it, which
// keeps the default runtime bit-identical to before.
type mgrState struct {
	dmap    *dmgr.Map
	model   *dmgr.Model
	sharded bool
	// pdir is the master's partitioned directory (nil unless sharded).
	pdir *dmgr.Directory

	// Reusable span scratch of the (serial) charge paths that run on the
	// submission thread; concurrent paths (staging procs, handlers)
	// decompose into their own buffers.
	spanbuf []dmgr.Span
	opsbuf  []int
}

// newMgrState arms the manager layer.
func newMgrState(cfg Config, met *rtMetrics) *mgrState {
	shards := cfg.ManagerShards
	if shards < 1 {
		shards = 1
	}
	nodes := len(cfg.Cluster.Nodes)
	dmap := dmgr.NewMap(shards, nodes)
	// A routed metadata request pays the one-way wire latency plus the
	// sender-side message overhead per hop.
	hop := cfg.Cluster.Net.Latency + cfg.Cluster.Net.PerMessageOverhead
	m := &mgrState{
		dmap:    dmap,
		model:   dmgr.NewModel(dmap, cfg.ManagerOpCost, hop, met.mgrOps, met.mgrRemoteOps),
		sharded: shards > 1,
		opsbuf:  make([]int, shards),
	}
	if m.sharded {
		m.pdir = dmgr.NewDirectory(dmap)
	}
	return m
}

// spanOps folds the spans of r into the per-shard op tally.
func (m *mgrState) spanOps(ops []int, r memspace.Region, perSpan int) {
	m.spanbuf = m.dmap.SpansInto(r, m.spanbuf)
	for _, sp := range m.spanbuf {
		ops[sp.Shard] += perSpan
	}
}

// mgrChargeSubmit models the dependence lookups and conflict-map updates
// of one submission batch. The whole batch's operations are tallied per
// owning shard first and each shard serves its share as one FCFS burst —
// shards work in parallel, so the submitting thread sleeps only until the
// slowest shard's reply. With one shard every operation serializes
// through a single queue: exactly the centralized bottleneck.
func (rt *Runtime) mgrChargeSubmit(p *sim.Proc, ts []*task.Task) {
	m := rt.mgr
	if m == nil || m.model.OpCost == 0 || len(ts) == 0 {
		return
	}
	ops := m.opsbuf
	for i := range ops {
		ops[i] = 0
	}
	for _, t := range ts {
		for _, d := range t.Deps {
			if !d.Region.Valid() {
				continue
			}
			m.spanOps(ops, d.Region, opsSubmitPerSpan)
		}
	}
	now := p.Now()
	done := now
	for s, n := range ops {
		if n == 0 {
			continue
		}
		if end := m.model.ServeFrom(now, 0, s, n); end > done {
			done = end
		}
	}
	if done > now {
		p.Sleep(sim.Duration(done - now))
	}
}

// mgrChargeUpdate models an asynchronous directory update (Produced /
// RecordProducer) issued from caller's node: the owning shards' queues
// absorb the work, nobody blocks on the reply.
func (rt *Runtime) mgrChargeUpdate(now sim.Time, caller int, r memspace.Region) {
	m := rt.mgr
	if m == nil || m.model.OpCost == 0 {
		return
	}
	m.spanbuf = m.dmap.SpansInto(r, m.spanbuf)
	for _, sp := range m.spanbuf {
		m.model.ServeFrom(now, caller, sp.Shard, opsProducedPerSpan)
	}
}

// mgrChargeQuery models a blocking coherence query (the transfer
// planner's Missing/Holders round) against r's owning shards; p sleeps
// until the slowest shard has answered. Runs inside per-dispatch procs, so
// it decomposes into a fresh span slice instead of the shared scratch.
func (rt *Runtime) mgrChargeQuery(p *sim.Proc, caller int, r memspace.Region) {
	m := rt.mgr
	if m == nil || m.model.OpCost == 0 {
		return
	}
	now := p.Now()
	done := now
	for _, sp := range m.dmap.Spans(r) {
		if end := m.model.ServeFrom(now, caller, sp.Shard, opsStagePerSpan); end > done {
			done = end
		}
	}
	if done > now {
		p.Sleep(sim.Duration(done - now))
	}
	// Make the routed metadata request visible on the fabric: one control
	// datagram to each remote shard host involved.
	if m.sharded {
		rt.mgrRouteVisible(p, caller, r)
	}
}

// mgrRouteVisible emits one best-effort control datagram from the
// caller's endpoint to each distinct remote shard host owning part of r.
// State was already applied at the master image; the datagrams put the
// metadata routing on the simulated wire where the fabric's counters (and
// traces) can see it.
func (rt *Runtime) mgrRouteVisible(p *sim.Proc, caller int, r memspace.Region) {
	m := rt.mgr
	prev := -1
	for _, sp := range m.dmap.Spans(r) {
		h := m.dmap.Host(sp.Shard)
		if h == caller || h == prev || rt.nodeIsDead(h) {
			continue
		}
		prev = h
		rt.nodes[caller].ep.AMProbe(p, h, amDirOp, nil)
	}
}

// mgrBrokerEndpoint returns the endpoint the push request for frag should
// originate from: the owning shard's host in sharded mode (the manager
// brokering the metadata), the master otherwise. Falls back to the master
// when the shard is hosted there anyway or its host is dead.
func (rt *Runtime) mgrBrokerEndpoint(frag memspace.Region) *nodeRT {
	m := rt.mgr
	if m == nil || !m.sharded {
		return rt.master()
	}
	h := m.dmap.Host(m.dmap.Owner(frag.Addr))
	if h == 0 || rt.nodeIsDead(h) {
		return rt.master()
	}
	rt.met.mgrBrokered.Inc()
	return rt.nodes[h]
}

// mgrFailover rehosts every shard of a dead manager node onto the master
// and charges the rebuild of its directory slice (one op per fragment the
// slice indexes) to the shard's new queue. The slice contents themselves
// are recovered by the producer-chain machinery (recoverLost), which the
// caller runs right after — the directory state never lived only on the
// dead host in the first place (state-immediate), so the rebuild cost is
// time, not data.
func (rt *Runtime) mgrFailover(now sim.Time, dead int) {
	m := rt.mgr
	if m == nil || !m.sharded {
		return
	}
	for _, s := range m.dmap.HostedOn(dead) {
		m.dmap.Reassign(s, 0)
		rt.met.mgrFailovers.Inc()
		if m.pdir != nil {
			m.model.Serve(now, s, opsRebuildPerFrag*m.pdir.ShardFragments(s))
		}
	}
}

// registerDirOpHandlers installs the amDirOp counter handler on every
// node's endpoint (any node can host a shard, and failover can move
// shards). Sharded mode only — the handler set of the default runtime
// stays byte-identical.
func (rt *Runtime) registerDirOpHandlers() {
	for _, n := range rt.nodes {
		n.ep.Register(amDirOp, func(p *sim.Proc, am gasnet.AM) {
			rt.met.mgrDirMsgs.Inc()
		})
	}
}
