package core

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// shardedCfg is faultedCfg with the manager service model armed and the
// directory partitioned over shards manager shards.
func shardedCfg(nodes, shards int, plan *faults.Plan) Config {
	cfg := faultedCfg(nodes, plan)
	cfg.ManagerShards = shards
	cfg.ManagerOpCost = 2 * time.Microsecond
	return cfg
}

func TestManagerShardsOneIsBitIdentical(t *testing.T) {
	// ManagerShards: 1 with zero op cost is the documented no-op spelling:
	// no manager model is built, and the whole run — results AND full
	// stats, timing included — must be indistinguishable from the default
	// config. This is the guarantee that keeps every fig5-13 replay and
	// exact-match test untouched by the sharding layer.
	run := func(shards int) (Stats, []byte) {
		cfg := faultedCfg(4, nil)
		cfg.ManagerShards = shards
		return runFaulted(t, cfg, 8, 3, 10*time.Millisecond)
	}
	s0, r0 := run(0)
	s1, r1 := run(1)
	if fmt.Sprintf("%+v", s0) != fmt.Sprintf("%+v", s1) {
		t.Fatalf("ManagerShards=1 perturbed stats:\n%+v\nvs\n%+v", s0, s1)
	}
	for i := range r0 {
		if r0[i] != r1[i] {
			t.Fatalf("results diverged at region %d: %d vs %d", i, r0[i], r1[i])
		}
	}
}

func TestShardedManagerMatchesCentralizedResults(t *testing.T) {
	// Sharding is state-immediate: every directory and dependence
	// transition happens exactly as in the centralized runtime, only the
	// modeled service time moves. So a sharded run must produce the same
	// bytes as the centralized run of the same program — only timing and
	// op accounting may differ (ops are charged per ownership span, and a
	// region straddling a 256KiB block boundary is one span centralized
	// but several sharded).
	run := func(shards int) (Stats, []byte) {
		return runFaulted(t, shardedCfg(8, shards, nil), 16, 3, 10*time.Millisecond)
	}
	cs, cr := run(1)
	ss, sr := run(4)
	checkAll(t, cr, 3)
	checkAll(t, sr, 3)
	if cs.ManagerOps == 0 {
		t.Fatal("armed manager model recorded no operations")
	}
	if ss.ManagerOps < cs.ManagerOps {
		t.Fatalf("sharded run charged fewer ops than centralized: %d vs %d",
			ss.ManagerOps, cs.ManagerOps)
	}
	// Remote ops flow in both modes (slaves always update some manager
	// across the wire: the master's in centralized mode, the owning
	// shard's host in sharded mode).
	if cs.ManagerRemoteOps == 0 {
		t.Fatal("centralized run charged no remote ops despite slave producers")
	}
	if ss.ManagerRemoteOps == 0 {
		t.Fatal("4-shard run on 8 nodes charged no remote ops")
	}
}

func TestManagerFailoverMidProducerChain(t *testing.T) {
	// Kill the node hosting a manager shard while producer chains over its
	// directory slice are in flight. The shard must be rehosted (failover),
	// its slice rebuilt from producer-chain replay, and the results must
	// come out checksum-exact versus a clean run — and the whole thing must
	// wind down without leaking goroutines.
	before := goruntime.NumGoroutine()

	// 8 nodes, 4 shards -> shard hosts {0, 2, 4, 6}; node 2 owns shard 1.
	// Crash it mid-run, while round-2 tasks still depend on round-1
	// producers tracked in its slice.
	cfg := shardedCfg(8, 4, &faults.Plan{
		Seed:    7,
		Crashes: []faults.Crash{{Node: 2, At: 30 * time.Millisecond}},
	})
	stats, results := runFaulted(t, cfg, 16, 3, 10*time.Millisecond)
	checkAll(t, results, 3)
	if stats.DeadNodes != 1 {
		t.Fatalf("DeadNodes = %d, want 1", stats.DeadNodes)
	}
	if stats.ManagerFailovers == 0 {
		t.Fatal("shard host died but no manager failover was recorded")
	}
	if stats.TasksReexecuted == 0 {
		t.Fatal("producer chain through the dead shard re-executed no tasks")
	}

	settled := eventually(200, 10*time.Millisecond, func() bool {
		goruntime.GC()
		return goruntime.NumGoroutine() <= before
	})
	if !settled {
		buf := make([]byte, 1<<16)
		n := goruntime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			before, goruntime.NumGoroutine(), buf[:n])
	}
}

func TestShardedManagerSameSeedReplaysBitIdentically(t *testing.T) {
	// Determinism must survive the sharded heartbeat/failover machinery:
	// the same faulted sharded run twice is bit-identical, stats included.
	run := func() (Stats, []byte) {
		cfg := shardedCfg(8, 4, &faults.Plan{
			Seed:    99,
			Crashes: []faults.Crash{{Node: 4, At: 25 * time.Millisecond}},
		})
		return runFaulted(t, cfg, 16, 3, 10*time.Millisecond)
	}
	s1, r1 := run()
	s2, r2 := run()
	if fmt.Sprintf("%+v", s1) != fmt.Sprintf("%+v", s2) {
		t.Fatalf("sharded stats diverged across identical runs:\n%+v\nvs\n%+v", s1, s2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("results diverged at region %d: %d vs %d", i, r1[i], r2[i])
		}
	}
}

func TestShardedManagerBuildsCentralizedGraph(t *testing.T) {
	// Every manager configuration uses the one dependence graph: sharding
	// moves only the modeled service of each lookup. One batch enters the
	// graph before any task runs, so the arcs it creates do not depend on
	// timing and must be the same for every shard count, including for
	// regions that straddle the 256KiB ownership blocks. Staging such a
	// region needs each missing piece to have a holder (dmgr Missing).
	run := func(shards int) ([]string, int, []byte) {
		cfg := shardedCfg(8, shards, nil)
		rt := New(cfg)
		var arcs []string
		var data []byte
		rt.graph.OnArc = func(pred, succ task.ID) {
			arcs = append(arcs, fmt.Sprintf("%d->%d", pred, succ))
		}
		_, err := rt.Run(func(mc *MainCtx) {
			buf := mc.Alloc(4 << 18)
			mc.InitSeq(buf, func(b []byte) { fill(b, 0) })
			var defs []TaskDef
			for round := 0; round < 3; round++ {
				for i := 0; i < 6; i++ {
					// Half-block regions shifted by a quarter block each
					// round, so they straddle block edges and overlap.
					r := memspace.Region{Addr: buf.Addr + uint64(i)<<17 + uint64(round)<<16, Size: 1 << 17}
					defs = append(defs, TaskDef{Name: fmt.Sprintf("r%dt%d", round, i), Device: task.CUDA,
						Deps: []task.Dep{inoutDep(r)},
						Work: incWork{r: r, delta: 1, cost: time.Millisecond}})
				}
			}
			mc.SubmitBatch(defs)
			mc.TaskWait()
			data = append(data, mc.HostBytes(buf)...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return arcs, rt.graph.Fragments(), data
	}
	ca, cf, cd := run(1)
	if len(ca) == 0 {
		t.Fatal("overlapping batch created no arcs")
	}
	for _, shards := range []int{2, 4} {
		sa, sf, sd := run(shards)
		if sf != cf {
			t.Fatalf("%d shards: %d fragments, centralized %d", shards, sf, cf)
		}
		if fmt.Sprint(sa) != fmt.Sprint(ca) {
			t.Fatalf("%d shards: arcs %v, centralized %v", shards, sa, ca)
		}
		if string(sd) != string(cd) {
			t.Fatalf("%d shards: results differ from the centralized run", shards)
		}
	}
}
