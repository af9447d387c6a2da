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
// the master — the classic single-manager bottleneck. Config.ManagerShards
// assigns the address space to N manager shards by block ownership
// (dmgr.Map), each shard hosted on a cluster node: dependence lookups and
// directory operations are charged to the shards owning each region's
// bytes, and slave-to-slave pushes are brokered by the owning shard's
// host. The master keeps the one dependence graph and the one coherence
// directory in every configuration; sharding is a cost and routing model
// over them, and centralized is the 1-shard map.
//
// The split is "state-immediate, cost-deferred": bookkeeping transitions
// are applied exactly as in the centralized runtime (which is why results
// stay checksum-exact between centralized and sharded runs), while
// Config.ManagerOpCost arms a virtual-time service model — each shard an
// FCFS serial queue — that makes the caller of a blocking query sleep
// until the owning shard has served it. One centralized queue saturates;
// N queues scale. That difference is what `ompss-bench -experiment
// weakscale` measures. With ManagerOpCost 0 nothing is charged, and at
// one shard every routing decision lands on the master, so the default
// runtime runs exactly as a runtime without the layer.

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
// operation to a remote shard host. The state transition itself is
// applied at the master image (state-immediate); the message makes the
// metadata routing visible on the simulated fabric and is counted by the
// shard host. Best-effort like the heartbeat: a lost datagram loses
// nothing but a counter increment.
const amDirOp = "dirop"

// mgrState is the manager layer's cost and routing model, built for every
// runtime: ManagerShards <= 1 gives the 1-shard map hosted on the master.
type mgrState struct {
	dmap  *dmgr.Map
	model *dmgr.Model

	// Reusable span scratch of the (serial) charge paths that run on the
	// submission thread; concurrent paths (staging procs, handlers)
	// decompose into their own buffers.
	spanbuf []dmgr.Span
	opsbuf  []int
}

// newMgrState builds the manager layer.
func newMgrState(cfg Config, met *rtMetrics) *mgrState {
	shards := max(cfg.ManagerShards, 1)
	dmap := dmgr.NewMap(shards, len(cfg.Cluster.Nodes))
	// A routed metadata request pays the one-way wire latency plus the
	// sender-side message overhead per hop.
	hop := cfg.Cluster.Net.Latency + cfg.Cluster.Net.PerMessageOverhead
	return &mgrState{
		dmap:   dmap,
		model:  dmgr.NewModel(dmap, cfg.ManagerOpCost, hop, met.mgrOps, met.mgrRemoteOps),
		opsbuf: make([]int, shards),
	}
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
	if m.model.OpCost == 0 || len(ts) == 0 {
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
	if m.model.OpCost == 0 {
		return
	}
	m.spanbuf = m.dmap.SpansInto(r, m.spanbuf)
	for _, sp := range m.spanbuf {
		m.model.ServeFrom(now, caller, sp.Shard, opsProducedPerSpan)
	}
}

// mgrChargeQuery models a blocking coherence query the master issues (the
// transfer planner's Missing/Holders round) against r's owning shards; p
// sleeps until the slowest shard has answered. Runs inside per-dispatch
// procs, so it decomposes into a fresh span slice instead of the shared
// scratch.
func (rt *Runtime) mgrChargeQuery(p *sim.Proc, r memspace.Region) {
	m := rt.mgr
	if m.model.OpCost == 0 {
		return
	}
	spans := m.dmap.Spans(r)
	now := p.Now()
	done := now
	for _, sp := range spans {
		if end := m.model.ServeFrom(now, 0, sp.Shard, opsStagePerSpan); end > done {
			done = end
		}
	}
	if done > now {
		p.Sleep(sim.Duration(done - now))
	}
	rt.mgrRouteVisible(p, spans)
}

// mgrRouteVisible emits one best-effort control datagram from the master
// to each distinct remote shard host owning one of spans. State was
// already applied at the master image; the datagrams put the metadata
// routing on the simulated wire where the fabric's counters (and traces)
// can see it. Shards hosted on the master send nothing.
func (rt *Runtime) mgrRouteVisible(p *sim.Proc, spans []dmgr.Span) {
	prev := -1
	for _, sp := range spans {
		h := rt.mgr.dmap.Host(sp.Shard)
		if h == 0 || h == prev || rt.nodeIsDead(h) {
			continue
		}
		prev = h
		rt.master().ep.AMProbe(p, h, amDirOp, nil)
	}
}

// mgrBrokerEndpoint returns the endpoint the push request for frag should
// originate from: the owning shard's host (the manager brokering the
// metadata). Falls back to the master when the shard is hosted there
// anyway — always, with one shard — or its host is dead.
func (rt *Runtime) mgrBrokerEndpoint(frag memspace.Region) *nodeRT {
	m := rt.mgr
	h := m.dmap.Host(m.dmap.Owner(frag.Addr))
	if h == 0 || rt.nodeIsDead(h) {
		return rt.master()
	}
	rt.met.mgrBrokered.Inc()
	return rt.nodes[h]
}

// mgrFailover rehosts every shard of a dead manager node onto the master
// and charges the rebuild of its directory slice (one op per span of the
// master directory's fragments the shard owns) to the shard's new queue.
// The slice contents themselves are recovered by the producer-chain
// machinery (recoverLost), which the caller runs right after — the
// directory state never lived only on the dead host in the first place
// (state-immediate), so the rebuild cost is time, not data. The master
// never dies, so with one shard there is nothing to rehost.
func (rt *Runtime) mgrFailover(now sim.Time, dead int) {
	m := rt.mgr
	shards := m.dmap.HostedOn(dead)
	if len(shards) == 0 {
		return
	}
	ops := make([]int, m.dmap.Shards())
	for _, r := range rt.master().dir.Regions() {
		m.spanOps(ops, r, opsRebuildPerFrag)
	}
	for _, s := range shards {
		m.dmap.Reassign(s, 0)
		rt.met.mgrFailovers.Inc()
		m.model.Serve(now, s, ops[s])
	}
}

// registerDirOpHandlers installs the amDirOp counter handler on every
// node's endpoint (any node can host a shard, and failover can move
// shards).
func (rt *Runtime) registerDirOpHandlers() {
	for _, n := range rt.nodes {
		n.ep.Register(amDirOp, func(p *sim.Proc, am gasnet.AM) {
			rt.met.mgrDirMsgs.Inc()
		})
	}
}
