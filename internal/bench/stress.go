package bench

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/depgraph"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// The stress experiment measures the runtime's *host-side* task
// bookkeeping throughput — graph insertion, dependence-arc creation,
// scheduling and directory updates — on synthetic million-task graphs,
// reported as tasks per second of wall-clock time. Unlike the fig
// experiments it deliberately bypasses the virtual-time simulator: the
// metric is how fast the runtime's own data structures go, the per-task
// cost ROADMAP names as the ceiling for 10^6-task graphs.
//
// The workload is a layered grid: width independent regions, depth layers
// of one InOut task per region (chains), submitted in a strided,
// non-monotonic address order — the pattern that forces mid-index
// fragment inserts, where the pre-sharding flat slice paid an O(n)
// memmove per insert. overlap shifts a fraction of each layer's regions
// by half a region size, splitting fragments and doubling arcs on the
// shared bytes.

// stressPlaces is the number of execution places the drain loop cycles
// through; finished tasks round-robin their Produced location over them.
const stressPlaces = 4

// stressRegion returns the region of column i, shifted for overlap rows.
func stressRegion(i int, shifted bool) memspace.Region {
	const size = 64
	addr := uint64(i) * size
	if shifted {
		addr += size / 2
	}
	return memspace.Region{Addr: addr, Size: size}
}

// stressLayer builds layer d of the grid in strided column order.
// overlapEvery > 0 shifts every overlapEvery-th column by half a region on
// odd layers, so consecutive layers partially overlap there.
func stressLayer(width, d int, overlapEvery int, base task.ID) []*task.Task {
	step := 9973 % width
	if step == 0 {
		step = 1
	}
	ts := make([]*task.Task, 0, width)
	for k := 0; k < width; k++ {
		i := (k * step) % width
		shifted := overlapEvery > 0 && i%overlapEvery == 0 && d%2 == 1
		ts = append(ts, &task.Task{
			ID:     base + task.ID(k+1),
			Name:   "s",
			Device: task.SMP,
			Deps:   []task.Dep{{Region: stressRegion(i, shifted), Access: task.InOut}},
		})
	}
	return ts
}

// stressRun submits width*depth tasks, one depgraph.SubmitBatch per
// layer, and drains them through the scheduler and directory, returning
// tasks/sec of wall-clock.
func stressRun(width, depth, overlapEvery int) (float64, error) {
	reg := metrics.New()
	sc := sched.NewWithHooks(sched.Dependencies, stressPlaces, nil, nil, false, nil,
		sched.Hooks{Queued: reg.Gauge("sched_queue_depth"), Steals: reg.Counter("sched_steals_total")})
	g := depgraph.New(func(t *task.Task) { sc.Submit(t, -1) })
	dir := coherence.NewDirectory()

	total := width * depth
	start := time.Now()
	var base task.ID
	for d := 0; d < depth; d++ {
		layer := stressLayer(width, d, overlapEvery, base)
		base += task.ID(width)
		if _, err := g.SubmitBatch(layer); err != nil {
			return 0, err
		}
	}
	// Drain: pop round-robin over the places, register each finished
	// task's output in the directory, release successors.
	place, idle := 0, 0
	for g.Pending() > 0 {
		t := sc.Pop(place)
		if t == nil {
			place = (place + 1) % stressPlaces
			idle++
			if idle > stressPlaces {
				return 0, fmt.Errorf("stress: %d tasks pending but no place has work", g.Pending())
			}
			continue
		}
		idle = 0
		dir.Produced(t.Deps[0].Region, memspace.GPU(0, place))
		g.Finished(t)
		place = (place + 1) % stressPlaces
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("stress: run too fast to time")
	}
	return float64(total) / elapsed, nil
}

// Stress is the tasks/sec scaling experiment (not a paper figure; gated
// by scripts/bench_guard.sh alongside the wall-clock budgets).
func Stress(o Options) ([]Row, error) {
	width, depth := StressShape(o)
	overlaps := []int{o.StressOverlap}
	if o.StressOverlap == 0 {
		// One partially-overlapping point: every 4th column straddles.
		overlaps = append(overlaps, 4)
	}
	var pts []point
	for _, ov := range overlaps {
		pts = append(pts, point{
			config: fmt.Sprintf("w=%d d=%d ov=%d submit=batch", width, depth, ov),
			run: func() (float64, string, error) {
				v, err := stressRun(width, depth, ov)
				return v, "tasks/s", err
			},
		})
	}
	return runGrid("stress", o, pts)
}

// StressShape returns the stress grid's width and depth under o: the
// overrides, or the defaults (10^6 tasks full, 10^5 quick) where zero.
func StressShape(o Options) (width, depth int) {
	width, depth = o.StressWidth, o.StressDepth
	if width == 0 {
		if o.Quick {
			width = 20_000
		} else {
			width = 100_000
		}
	}
	if depth == 0 {
		if o.Quick {
			depth = 5
		} else {
			depth = 10
		}
	}
	return width, depth
}
