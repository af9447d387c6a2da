package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/depgraph"
	"github.com/bsc-repro/ompss/internal/dmgr"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// perLayer is the per-layer metric set of BENCHMARK.json, in the order it
// is documented. A metric whose layer a workload does not exercise reads 0
// there (dmgr outside shard64-batch, the runtime layers on serve-mix, the
// serve and bench layers on the runtime workloads).
var perLayer = []struct{ name, unit string }{
	{"virt_elapsed_s", "s"},
	{"sim.host_ns_per_proc", "ns"}, {"sim.allocs_per_proc", "count"},
	{"memspace.fragments", "count"}, {"memspace.host_ns_per_cover", "ns"},
	{"depgraph.host_ns_per_task", "ns"}, {"depgraph.allocs_per_task", "count"}, {"depgraph.arcs_per_task", "count"},
	{"sched.host_ns_per_task", "ns"}, {"sched.queue_depth_max", "count"}, {"sched.steals", "count"},
	{"coherence.cache_host_ns_per_op", "ns"}, {"coherence.cache_lines_max", "count"}, {"coherence.dir_host_ns_per_op", "ns"},
	{"coherence.hit_ratio", "ratio"}, {"coherence.evictions", "count"}, {"coherence.writebacks", "count"},
	{"coherence.fragment_assemblies", "count"}, {"coherence.stage_wait_s", "s"},
	{"dmgr.ops_per_task", "count"}, {"dmgr.remote_op_share", "ratio"}, {"dmgr.host_ns_per_op", "ns"},
	{"netsim.msgs_per_task", "count"}, {"netsim.bytes_per_task", "B"}, {"netsim.stos_byte_share", "ratio"},
	{"netsim.busy_s", "s"}, {"netsim.host_ns_per_msg", "ns"},
	{"gasnet.host_ns_per_am", "ns"}, {"gasnet.acks", "count"},
	{"gpusim.h2d_bytes_per_task", "B"}, {"gpusim.d2h_bytes_per_task", "B"}, {"gpusim.kernel_busy_share", "ratio"},
	{"gpusim.dma_busy_s", "s"}, {"gpusim.host_ns_per_op", "ns"},
	{"core.unattributed_host_ns_per_task", "ns"}, {"core.remote_task_share", "ratio"}, {"core.presends", "count"},
	{"core.virt_idle_share", "ratio"}, {"core.trace_overhead_pct", "%"},
	{"bench.execute_ms_p50", "ms"},
	{"serve.handler_hit_us_p50", "us"}, {"serve.parse_hash_us", "us"}, {"serve.coalesced", "count"},
	{"serve.rejected", "count"}, {"serve.latency_p99_ms", "ms"}, {"serve.miss_latency_p50_ms", "ms"},
	{"serve.hit_rate", "ratio"},
}

// fillLayerZeros adds every per-layer metric the workload did not report,
// at 0: its layer does no work on this workload.
func fillLayerZeros(res *result) {
	have := map[string]bool{}
	for _, m := range res.metrics {
		have[m.name] = true
	}
	for _, m := range perLayer {
		if !have[m.name] {
			res.add(m.name, 0, m.unit)
		}
	}
}

// spanLog keeps the benchmark's own layer spans in memory; write dumps
// them when the run ends.
type spanLog struct {
	t0    time.Time
	spans []string
}

// begin opens a span around a call into layer; the returned func closes it.
func (l *spanLog) begin(layer, name string) func() {
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	start := time.Since(l.t0)
	return func() {
		l.spans = append(l.spans, fmt.Sprintf(`{"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d}`,
			layer, name, int64(start), int64(time.Since(l.t0))))
	}
}

func (l *spanLog) write(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed))
	body := "[\n" + strings.Join(l.spans, ",\n") + "\n]\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(o.stdout, "spans %s (%d)\n", path, len(l.spans))
	return nil
}

// timed runs fn repeatedly (at least three times and for at least
// minDur) and returns the median wall time of one call together with the
// heap allocations of the first call.
func timed(sp *spanLog, layer string, fn func()) (time.Duration, uint64) {
	const minDur = 150 * time.Millisecond
	var ms runtime.MemStats
	var ds []float64
	var mallocs uint64
	d := after(minDur)
	for len(ds) < 3 || !d.passed() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		end := sp.begin(layer, "replay")
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
		end()
		if len(ds) == 1 {
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs - m0
		}
	}
	return time.Duration(median(ds)), mallocs
}

// traced is the per-layer half of a runtime workload: traced runs (the
// first under a CPU profile), then each layer's public API fed the traced
// run's operation stream in isolation, then the host ledger and the
// virtual breakdown.
func (pg *program) traced(o options, first runResult, hostMed float64, res *result) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("profile dir: %w", err)
	}
	sp := &spanLog{}
	profPath := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-cpu.pprof", o.workload, o.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// Traced runs alternate with untraced ones: the tracing overhead is the
	// median ratio of each pair, so host drift cancels within a pair.
	var rec *trace.Recorder
	var ratios []float64
	d := after(secondsDur(o.seconds) / 4)
	for len(ratios) < 3 || !d.passed() {
		runtime.GC()
		plain, err := pg.run(pg.cfg)
		if !res.check(err) {
			break
		}
		cfg := pg.cfg
		cfg.Trace = trace.New()
		if rec == nil {
			if err := pprof.StartCPUProfile(prof); err != nil {
				prof.Close()
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		runtime.GC()
		end := sp.begin("core", "traced run")
		r, err := pg.run(cfg)
		end()
		if rec == nil {
			pprof.StopCPUProfile()
			rec = cfg.Trace
		}
		if err == nil {
			err = sameVirt("traced run", r.stats.ElapsedSeconds, first.stats.ElapsedSeconds)
		}
		if !res.check(err) {
			break
		}
		ratios = append(ratios, r.host.Seconds()/plain.host.Seconds())
	}
	if err := prof.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	fmt.Fprintf(o.stdout, "profile %s\n", profPath)

	st := first.stats
	n := float64(len(pg.tasks))
	res.add("virt_elapsed_s", st.ElapsedSeconds, "s")
	res.add("core.trace_overhead_pct", (median(ratios)-1)*100, "%")
	pg.statsLayers(st, rec, res)

	lr := newReplay(pg, rec)
	if err := lr.check(); !res.check(err) {
		fillLayerZeros(res)
		return sp.write(o)
	}
	type ledgerLine struct {
		layer string
		total time.Duration // host time of the layer's replay
	}
	var ledger []ledgerLine
	addLedger := func(layer string, total time.Duration) { ledger = append(ledger, ledgerLine{layer, total}) }

	dt, allocs := timed(sp, "sim", lr.sim)
	res.add("sim.host_ns_per_proc", perOp(dt, len(lr.spans)), "ns")
	res.add("sim.allocs_per_proc", float64(allocs)/float64(max(1, len(lr.spans))), "count")
	addLedger("sim", dt)

	dt, _ = timed(sp, "memspace", lr.memspace)
	res.add("memspace.host_ns_per_cover", perOp(dt, lr.deps), "ns")
	res.add("memspace.fragments", float64(lr.fragments), "count")
	addLedger("memspace", dt)

	dt, allocs = timed(sp, "depgraph", lr.depgraph)
	res.add("depgraph.host_ns_per_task", perOp(dt, len(pg.tasks)), "ns")
	res.add("depgraph.allocs_per_task", float64(allocs)/n, "count")
	lr.graph(true)
	res.add("depgraph.arcs_per_task", float64(lr.arcs)/n, "count")
	addLedger("depgraph", dt)

	dt, _ = timed(sp, "sched", lr.sched)
	res.add("sched.host_ns_per_task", perOp(dt, len(pg.tasks)), "ns")
	addLedger("sched", dt)

	if lr.gpuOpCount > 0 { // the software caches front GPUs only
		dt, _ = timed(sp, "coherence", lr.caches)
		res.add("coherence.cache_host_ns_per_op", perOp(dt, lr.cacheOps), "ns")
		res.add("coherence.cache_lines_max", float64(lr.linesMax), "count")
		addLedger("coherence.cache", dt)
	}
	if pg.cfg.ManagerShards > 1 { // the sharded directory replaces the master's
		dt, _ = timed(sp, "dmgr", lr.dmgr)
		res.add("dmgr.host_ns_per_op", perOp(dt, lr.deps), "ns")
		addLedger("dmgr", dt)
	} else {
		dt, _ = timed(sp, "coherence", lr.directory)
		res.add("coherence.dir_host_ns_per_op", perOp(dt, lr.deps), "ns")
		addLedger("coherence.dir", dt)
	}
	// The network and GPU replays run on a sim engine of their own, whose
	// cost the sim line already holds: the ledger charges netsim and gpusim
	// only their time above a sim-only replay of the same spans (processes
	// that sleep each span's duration), and gasnet only its time above the
	// netsim replay, which carries the same messages.
	if len(lr.sends) > 0 {
		base, _ := timed(sp, "sim", lr.netBaseline)
		dtNet, _ := timed(sp, "netsim", lr.netsim)
		res.add("netsim.host_ns_per_msg", perOp(dtNet, len(lr.sends)), "ns")
		addLedger("netsim", dtNet-base)
		dt, _ = timed(sp, "gasnet", lr.gasnet)
		res.add("gasnet.host_ns_per_am", perOp(dt, len(lr.sends)), "ns")
		addLedger("gasnet", dt-dtNet)
	}
	if lr.gpuOpCount > 0 {
		base, _ := timed(sp, "sim", lr.gpuBaseline)
		dt, _ = timed(sp, "gpusim", lr.gpusim)
		res.add("gpusim.host_ns_per_op", perOp(dt, lr.gpuOpCount), "ns")
		addLedger("gpusim", dt-base)
	}

	e2e := hostMed * 1e9 / n
	sum := 0.0
	fmt.Fprintf(o.stdout, "ledger %-18s %12.1f ns/task (end to end, untraced median)\n", "total", e2e)
	for _, l := range ledger {
		v := float64(l.total) / n
		sum += v
		fmt.Fprintf(o.stdout, "ledger %-18s %12.1f ns/task\n", l.layer, v)
	}
	res.add("core.unattributed_host_ns_per_task", e2e-sum, "ns")
	fmt.Fprintf(o.stdout, "ledger %-18s %12.1f ns/task (end to end minus the replayed layers)\n", "core.unattributed", e2e-sum)

	pg.virtualBreakdown(o, st, rec, res)
	fillLayerZeros(res)
	return sp.write(o)
}

func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumMetric adds up the registry samples of one instrument name (all label
// sets); for gauges it takes the largest high-water mark.
func sumMetric(ms []metrics.Sample, name string, field func(metrics.Sample) int64) float64 {
	var v int64
	for _, s := range ms {
		if s.ID == name || strings.HasPrefix(s.ID, name+"{") {
			v += field(s)
		}
	}
	return float64(v)
}

func maxMetric(ms []metrics.Sample, name string) float64 {
	var v int64
	for _, s := range ms {
		if (s.ID == name || strings.HasPrefix(s.ID, name+"{")) && s.Max > v {
			v = s.Max
		}
	}
	return float64(v)
}

// statsLayers derives the count-based layer metrics from the run's Stats,
// its metrics snapshot and its trace.
func (pg *program) statsLayers(st ompss.Stats, rec *trace.Recorder, res *result) {
	n := float64(len(pg.tasks))
	value := func(s metrics.Sample) int64 { return s.Value }
	res.add("sched.queue_depth_max", maxMetric(st.Metrics, "sched_queue_depth"), "count")
	res.add("sched.steals", sumMetric(st.Metrics, "sched_steals_total", value), "count")
	res.add("coherence.hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)), "ratio")
	res.add("coherence.evictions", float64(st.Evictions), "count")
	res.add("coherence.writebacks", float64(st.Writebacks), "count")
	res.add("coherence.fragment_assemblies", sumMetric(st.Metrics, "coherence_fragment_assemblies", value), "count")
	res.add("coherence.stage_wait_s", sumMetric(st.Metrics, "stage_ns", func(s metrics.Sample) int64 { return s.Sum })/1e9, "s")
	res.add("dmgr.ops_per_task", float64(st.ManagerOps)/n, "count")
	res.add("dmgr.remote_op_share", ratio(float64(st.ManagerRemoteOps), float64(st.ManagerOps)), "ratio")
	res.add("netsim.msgs_per_task", float64(st.NetMsgs)/n, "count")
	res.add("netsim.bytes_per_task", float64(st.NetBytes)/n, "B")
	res.add("netsim.stos_byte_share", ratio(float64(st.BytesStoS), float64(st.BytesStoS+st.BytesMtoS)), "ratio")
	var netBusy sim.Time
	for _, s := range rec.Spans() {
		if s.Kind == trace.NetSend {
			netBusy += s.Dur()
		}
	}
	res.add("netsim.busy_s", netBusy.Seconds(), "s")
	res.add("gasnet.acks", sumMetric(st.Metrics, "am_acks_total", value), "count")
	res.add("gpusim.h2d_bytes_per_task", float64(st.BytesH2D)/n, "B")
	res.add("gpusim.d2h_bytes_per_task", float64(st.BytesD2H)/n, "B")
	res.add("gpusim.kernel_busy_share", ratio(st.KernelBusySeconds, st.ElapsedSeconds*float64(pg.cfg.Cluster.TotalGPUs())), "ratio")
	res.add("gpusim.dma_busy_s", sumMetric(st.Metrics, "gpu_dma_busy_ns", value)/1e9, "s")
	res.add("core.remote_task_share", float64(st.TasksRemote)/n, "ratio")
	res.add("core.presends", float64(st.Presends), "count")
}

// virtualBreakdown prints where the modelled machine's time went. Every
// trace row (a GPU, a node's host, its network channel) is swept over
// [0, elapsed]; each instant goes to the highest-priority span kind
// active on the row (task, then h2d, d2h, net, stage) or to idle, so the
// parts add up to elapsed × rows exactly.
func (pg *program) virtualBreakdown(o options, st ompss.Stats, rec *trace.Recorder, res *result) {
	kinds := []trace.Kind{trace.TaskRun, trace.XferH2D, trace.XferD2H, trace.NetSend, trace.Stage}
	prio := map[trace.Kind]int{}
	for i, k := range kinds {
		prio[k] = i
	}
	type edge struct {
		at    sim.Time
		kind  int
		delta int
	}
	end := sim.Time(st.ElapsedSeconds * 1e9)
	rows := map[[2]int][]edge{}
	for _, s := range rec.Spans() {
		p, ok := prio[s.Kind]
		if !ok || s.Start >= end {
			continue
		}
		key := [2]int{s.Node, s.Dev}
		rows[key] = append(rows[key], edge{s.Start, p, 1}, edge{min(s.End, end), p, -1})
	}
	attributed := make([]sim.Time, len(kinds))
	var idle sim.Time
	for _, es := range rows {
		sort.Slice(es, func(i, j int) bool { return es[i].at < es[j].at })
		active := make([]int, len(kinds))
		var at sim.Time
		for _, e := range append(es, edge{end, 0, 0}) {
			if e.at > at {
				k := -1
				for i, c := range active {
					if c > 0 {
						k = i
						break
					}
				}
				if k < 0 {
					idle += e.at - at
				} else {
					attributed[k] += e.at - at
				}
				at = e.at
			}
			active[e.kind] += e.delta
		}
	}
	total := st.ElapsedSeconds * float64(len(rows))
	line := fmt.Sprintf("virtual elapsed_s=%.9g rows=%d elapsed_x_rows_s=%.9g", st.ElapsedSeconds, len(rows), total)
	for i, k := range kinds {
		line += fmt.Sprintf(" %s=%.9g", k, attributed[i].Seconds())
	}
	fmt.Fprintf(o.stdout, "%s idle=%.9g\n", line, idle.Seconds())
	res.add("core.virt_idle_share", ratio(idle.Seconds(), total), "ratio")
}

// replay holds a traced run's operation stream, prepared outside the
// timed region, and one method per layer that feeds it to that layer's
// public API.
type replay struct {
	pg     *program
	bases  []memspace.Region
	tasks  []*task.Task
	spans  []trace.Span
	preds  map[int64][]int64
	placed []trace.Span // TaskRun span per generated task index
	ran    []bool       // whether placed[i] was found
	sends  []trace.Span // NetSend spans in start order

	deps, cacheOps, gpuOpCount int // clause operations: all, on GPU-run tasks; GPU ops
	fragments, linesMax, arcs  int
	gpuOps                     map[[2]int][]trace.Span
	scores                     [][]uint64
}

func newReplay(pg *program, rec *trace.Recorder) *replay {
	lr := &replay{pg: pg, bases: pg.bases(), spans: rec.Spans(), preds: map[int64][]int64{},
		placed: make([]trace.Span, len(pg.tasks)), ran: make([]bool, len(pg.tasks)), gpuOps: map[[2]int][]trace.Span{}}
	lr.tasks = pg.taskSpecs(lr.bases)
	for _, t := range lr.tasks {
		lr.deps += len(t.Deps)
	}
	for _, e := range rec.Edges() {
		lr.preds[e.Succ] = append(lr.preds[e.Succ], e.Pred)
	}
	minID := int64(-1)
	for _, s := range lr.spans {
		if s.Kind == trace.TaskRun && (minID < 0 || s.Task < minID) {
			minID = s.Task
		}
	}
	for _, s := range lr.spans {
		switch s.Kind {
		case trace.TaskRun:
			if i := s.Task - minID; i >= 0 && i < int64(len(lr.placed)) {
				lr.placed[i], lr.ran[i] = s, true
			}
			if s.Dev >= 0 {
				lr.gpuOps[[2]int{s.Node, s.Dev}] = append(lr.gpuOps[[2]int{s.Node, s.Dev}], s)
			}
		case trace.XferH2D, trace.XferD2H:
			if s.Dev >= 0 {
				lr.gpuOps[[2]int{s.Node, s.Dev}] = append(lr.gpuOps[[2]int{s.Node, s.Dev}], s)
			}
		case trace.NetSend:
			lr.sends = append(lr.sends, s)
		}
	}
	sort.SliceStable(lr.sends, func(i, j int) bool { return lr.sends[i].Start < lr.sends[j].Start })
	for k, ops := range lr.gpuOps {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
		lr.gpuOps[k] = ops
		lr.gpuOpCount += len(ops)
	}
	// Affinity scores: the place each task actually ran on.
	lr.scores = make([][]uint64, len(lr.tasks))
	for i := range lr.scores {
		lr.scores[i] = make([]uint64, pg.places())
		if p := lr.place(i); p >= 0 && p < pg.places() {
			lr.scores[i][p] = 1
		}
	}
	return lr
}

// check confirms every generated task ran exactly once in the trace.
func (lr *replay) check() error {
	for i, ok := range lr.ran {
		if !ok {
			return fmt.Errorf("%s: generated task %d has no TaskRun span in the trace", lr.pg.name, i)
		}
	}
	return nil
}

// place is the scheduling place task i ran on: its node on a cluster,
// its GPU on a single node.
func (lr *replay) place(i int) int {
	s := lr.placed[i]
	if len(lr.pg.cfg.Cluster.Nodes) > 1 {
		return s.Node
	}
	return s.Dev
}

func (lr *replay) loc(i int) memspace.Location {
	s := lr.placed[i]
	if s.Dev >= 0 {
		return memspace.GPU(s.Node, s.Dev)
	}
	return memspace.Host(s.Node)
}

// sim: every traced span becomes a process that sleeps its duration; task
// spans first wait for their traced predecessors.
func (lr *replay) sim() {
	e := sim.NewEngine()
	done := make(map[int64]*sim.Event, len(lr.tasks))
	for _, s := range lr.spans {
		if s.Kind == trace.TaskRun {
			done[s.Task] = sim.NewEvent(e)
		}
	}
	for _, s := range lr.spans {
		s := s
		if s.Kind != trace.TaskRun {
			e.GoAfter(s.Name, time.Duration(s.Start), func(p *sim.Proc) { p.Sleep(time.Duration(s.Dur())) })
			continue
		}
		e.Go(s.Name, func(p *sim.Proc) {
			for _, pr := range lr.preds[s.Task] {
				if ev := done[pr]; ev != nil {
					ev.Wait(p)
				}
			}
			p.Sleep(time.Duration(s.Dur()))
			done[s.Task].Trigger()
		})
	}
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("sim replay: %v", err))
	}
}

// memspace: every clause region is covered (split at its bounds) in
// submission order.
func (lr *replay) memspace() {
	m := memspace.NewFragMap(func(v int) int { return v }, func() int { return 0 })
	var buf []*memspace.Frag[int]
	for _, t := range lr.tasks {
		for _, d := range t.Deps {
			buf = m.CoverInto(d.Region, buf[:0])
		}
	}
	lr.fragments = m.Len()
}

// depgraph: the tasks are submitted (per layer in one SubmitBatch when
// the workload batches) and then finished in ready order.
func (lr *replay) depgraph() { lr.graph(false) }

// graph is the depgraph replay; with countArcs it also tallies the arcs the
// graph built (outside the timed replays).
func (lr *replay) graph(countArcs bool) {
	var ready []*task.Task
	g := depgraph.New(func(t *task.Task) { ready = append(ready, t) })
	fresh := lr.pg.taskSpecs(lr.bases)
	if lr.pg.batch {
		for l, lo := range lr.pg.layers {
			hi := len(fresh)
			if l+1 < len(lr.pg.layers) {
				hi = lr.pg.layers[l+1]
			}
			if _, err := g.SubmitBatch(fresh[lo:hi]); err != nil {
				panic(fmt.Sprintf("depgraph replay: %v", err))
			}
		}
	} else {
		for _, t := range fresh {
			if err := g.Submit(t); err != nil {
				panic(fmt.Sprintf("depgraph replay: %v", err))
			}
		}
	}
	if countArcs {
		lr.arcs = 0
		for _, t := range fresh {
			lr.arcs += len(g.Successors(t))
		}
	}
	for i := 0; i < len(ready); i++ {
		g.Finished(ready[i])
	}
	if len(ready) != len(fresh) {
		panic(fmt.Sprintf("depgraph replay: %d of %d tasks became ready", len(ready), len(fresh)))
	}
}

// sched: every task is submitted ready and popped round-robin over the
// workload's places under the workload's policy.
func (lr *replay) sched() {
	score := func(t *task.Task) []uint64 { return lr.scores[t.ID-1] }
	policy := lr.pg.cfg.Scheduler
	if policy == "" {
		policy = sched.Dependencies // the runtime's default
	}
	places := lr.pg.places()
	s := sched.New(policy, places, score, nil, lr.pg.cfg.Steal, nil)
	for _, t := range lr.tasks {
		s.Submit(t, -1)
	}
	for p := 0; s.Len() > 0; p = (p + 1) % places {
		s.Pop(p)
	}
}

// caches: each GPU's software cache sees the regions of the tasks that
// ran on it, in execution order, at the device's capacity.
func (lr *replay) caches() {
	caches := map[memspace.Location]*coherence.Cache{}
	lr.cacheOps, lr.linesMax = 0, 0
	order := make([]int, 0, len(lr.tasks))
	for i := range lr.tasks {
		if lr.placed[i].Dev >= 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return lr.placed[order[a]].Start < lr.placed[order[b]].Start })
	for _, i := range order {
		loc := lr.loc(i)
		c := caches[loc]
		if c == nil {
			spec := lr.pg.cfg.Cluster.Nodes[loc.Node].GPUs[loc.Dev]
			c = coherence.NewCache(loc, coherence.WriteBack, uint64(float64(spec.MemBytes)*0.95))
			caches[loc] = c
		}
		for _, d := range lr.tasks[i].Deps {
			lr.cacheOps++
			if c.Lookup(d.Region) != nil {
				continue
			}
			for _, l := range c.OverlappingLines(d.Region) {
				if d.Access.Writes() {
					c.Remove(l.Region) // a write invalidates overlapping stale lines
				}
			}
			victims, ok := c.MakeSpace(d.Region.Size)
			if !ok {
				continue
			}
			for _, v := range victims {
				c.Remove(v.Region)
			}
			c.Insert(d.Region, d.Access.Writes())
			lr.linesMax = max(lr.linesMax, c.Len())
		}
	}
}

// directoryAPI is what the directory replays call; coherence.Directory
// and dmgr.Directory both provide it.
type directoryAPI interface {
	Init(memspace.Region, memspace.Location)
	Missing(memspace.Region, memspace.Location) []memspace.Region
	AddHolder(memspace.Region, memspace.Location)
	Produced(memspace.Region, memspace.Location)
}

// directory: the master's coherence directory answers each task's reads
// (Missing, then AddHolder at the executing device) and records its writes
// (Produced).
func (lr *replay) directory() { lr.feedDirectory(coherence.NewDirectory(), nil) }

// dmgr: the same stream through the sharded directory, plus the span
// decomposition every routed operation pays.
func (lr *replay) dmgr() {
	m := dmgr.NewMap(lr.pg.cfg.ManagerShards, len(lr.pg.cfg.Cluster.Nodes))
	var spans []dmgr.Span
	lr.feedDirectory(dmgr.NewDirectory(m), func(r memspace.Region) { spans = m.SpansInto(r, spans[:0]) })
}

func (lr *replay) feedDirectory(d directoryAPI, route func(memspace.Region)) {
	for _, b := range lr.bases {
		d.Init(b, memspace.Host(0))
	}
	for i, t := range lr.tasks {
		loc := lr.loc(i)
		for _, dep := range t.Deps {
			if route != nil {
				route(dep.Region)
			}
			if dep.Access.Reads() {
				d.Missing(dep.Region, loc)
				d.AddHolder(dep.Region, loc)
			}
			if dep.Access.Writes() {
				d.Produced(dep.Region, loc)
			}
		}
	}
}

// netsim: each traced inter-node transfer is re-sent over a fresh fabric
// by its sender at its traced start time.
func (lr *replay) netsim() {
	e := sim.NewEngine()
	f := netsim.New(e, lr.pg.cfg.Cluster.Net, len(lr.pg.cfg.Cluster.Nodes))
	lr.sendAll(e, func(p *sim.Proc, s trace.Span) {
		f.Send(p, netsim.Message{From: s.Node, To: s.Peer, Size: s.Bytes})
	}, func() {
		for i := 0; i < f.Nodes(); i++ {
			f.Iface(i).Inbox().Close()
		}
	})
}

// netBaseline: the senders of the netsim replay, sleeping each send's
// traced duration instead of calling the fabric.
func (lr *replay) netBaseline() {
	lr.sendAll(sim.NewEngine(), func(p *sim.Proc, s trace.Span) { p.Sleep(time.Duration(s.Dur())) }, func() {})
}

// gasnet: the same transfers as active messages with a payload region,
// dispatched to a no-op handler on the receiving endpoint.
func (lr *replay) gasnet() {
	e := sim.NewEngine()
	f := netsim.New(e, lr.pg.cfg.Cluster.Net, len(lr.pg.cfg.Cluster.Nodes))
	eps := make([]*gasnet.Endpoint, f.Nodes())
	for i := range eps {
		eps[i] = gasnet.NewEndpoint(f, i, nil)
		eps[i].Register("xfer", func(*sim.Proc, gasnet.AM) {})
		eps[i].Start(e)
	}
	lr.sendAll(e, func(p *sim.Proc, s trace.Span) {
		eps[s.Node].AMLong(p, s.Peer, "xfer", nil, memspace.Region{Addr: s.Region, Size: s.Bytes})
	}, func() {
		for _, ep := range eps {
			ep.Shutdown()
		}
	})
}

// sendAll runs one sender process per node issuing its traced sends in
// order, then calls stop once every send has returned.
func (lr *replay) sendAll(e *sim.Engine, send func(*sim.Proc, trace.Span), stop func()) {
	perNode := map[int][]trace.Span{}
	for _, s := range lr.sends {
		perNode[s.Node] = append(perNode[s.Node], s)
	}
	left := sim.NewCounter(e, len(perNode))
	for node := 0; node < len(lr.pg.cfg.Cluster.Nodes); node++ {
		ss := perNode[node]
		if len(ss) == 0 {
			continue
		}
		e.Go("sender", func(p *sim.Proc) {
			for _, s := range ss {
				if wait := s.Start - p.Now(); wait > 0 {
					p.Sleep(time.Duration(wait))
				}
				send(p, s)
			}
			left.Done()
		})
	}
	e.Go("stop", func(p *sim.Proc) {
		left.Wait(p)
		p.Sleep(time.Second) // let in-flight deliveries land
		stop()
	})
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("network replay: %v", err))
	}
}

// gpusim: each GPU re-runs its traced copies and kernels in order.
func (lr *replay) gpusim() { lr.perGPU(true) }

// gpuBaseline: the same per-GPU processes, sleeping each op's traced
// duration instead of calling the device.
func (lr *replay) gpuBaseline() { lr.perGPU(false) }

func (lr *replay) perGPU(device bool) {
	e := sim.NewEngine()
	for key, ops := range lr.gpuOps {
		ops := ops
		var dev *gpusim.Device
		if device {
			spec := lr.pg.cfg.Cluster.Nodes[key[0]].GPUs[key[1]]
			dev = gpusim.New(e, spec, memspace.GPU(key[0], key[1]), lr.pg.cfg.Overlap, false)
		}
		e.Go("gpu", func(p *sim.Proc) {
			for _, s := range ops {
				if !device {
					p.Sleep(time.Duration(s.Dur()))
					continue
				}
				switch s.Kind {
				case trace.TaskRun:
					dev.Launch(p, s.Name, time.Duration(s.Dur()), nil)
				case trace.XferH2D:
					dev.Copy(p, gpusim.H2D, memspace.Region{Addr: s.Region, Size: s.Bytes}, nil, true)
				case trace.XferD2H:
					dev.Copy(p, gpusim.D2H, memspace.Region{Addr: s.Region, Size: s.Bytes}, nil, true)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("gpusim replay: %v", err))
	}
}
