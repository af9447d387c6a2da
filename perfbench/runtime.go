package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// runResult is one execution of a generated program through ompss.Run.
type runResult struct {
	stats      ompss.Stats
	host       time.Duration // wall time of Run alone
	speed      float64       // reference-speed factor of host (measured repetitions)
	allocBytes uint64        // TotalAlloc delta across New+Run
	checksum   uint64        // result checksum (validated runs only)
	rssMB      float64       // peak resident set during the run (measured repetitions)
}

// run executes pg once under cfg. The program body is the generated task
// stream and nothing else: allocate the arrays, submit every task (one
// layer per TaskBatch when pg.batch), and wait with a flush.
func (pg *program) run(cfg ompss.Config) (runResult, error) {
	var res runResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := ompss.New(cfg)
	t0 := time.Now()
	st, err := rt.Run(func(ctx *ompss.Context) {
		bases := make([]ompss.Region, len(pg.arrays))
		for i, sz := range pg.arrays {
			bases[i] = ctx.Alloc(sz)
		}
		if pg.batch {
			for l, lo := range pg.layers {
				hi := len(pg.tasks)
				if l+1 < len(pg.layers) {
					hi = pg.layers[l+1]
				}
				specs := make([]ompss.TaskSpec, 0, hi-lo)
				for i := lo; i < hi; i++ {
					k := pg.tasks[i].kernelOf(bases)
					specs = append(specs, ompss.TaskSpec{Work: k, Clauses: clausesOf(&pg.tasks[i], k)})
				}
				//ompss:depverify-ok clausesOf declares exactly the regions kernel.Run touches (k.a, k.b read; k.out written); the validated twin checks the result against the serial reference
				ctx.TaskBatch(specs)
			}
		} else {
			for i := range pg.tasks {
				k := pg.tasks[i].kernelOf(bases)
				//ompss:depverify-ok clausesOf declares exactly the regions kernel.Run touches (k.a, k.b read; k.out written); the validated twin checks the result against the serial reference
				ctx.Task(k, clausesOf(&pg.tasks[i], k)...)
			}
		}
		ctx.TaskWait()
		if cfg.Validate {
			h := newHash()
			for _, a := range pg.check {
				h.addBytes(ctx.HostBytes(bases[a]))
			}
			res.checksum = h.sum
		}
	})
	res.host = time.Since(t0)
	runtime.ReadMemStats(&after)
	res.stats = st
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return res, fmt.Errorf("%s: run: %w", pg.name, err)
	}
	if got := st.TasksSMP + st.TasksCUDA; got != len(pg.tasks) {
		return res, fmt.Errorf("%s: runtime executed %d tasks, program submitted %d", pg.name, got, len(pg.tasks))
	}
	return res, nil
}

// clausesOf is the directive of t: its target device, In on each read and
// Out (or InOut) on the written block.
func clausesOf(t *genTask, k kernel) []ompss.Clause {
	cl := []ompss.Clause{ompss.Target(t.dev)}
	switch {
	case k.b.Valid():
		cl = append(cl, ompss.In(k.a, k.b))
	case k.a.Valid():
		cl = append(cl, ompss.In(k.a))
	}
	if t.inout {
		return append(cl, ompss.InOut(k.out))
	}
	return append(cl, ompss.Out(k.out))
}

// serialChecksum runs the program's kernels one after another in
// submission order on a single host store: the reference every validated
// run must match byte for byte.
func (pg *program) serialChecksum() uint64 {
	bases := pg.bases()
	store := memspace.NewStore(memspace.Host(0))
	for i := range pg.tasks {
		pg.tasks[i].kernelOf(bases).Run(store)
	}
	h := newHash()
	for _, a := range pg.check {
		h.addBytes(store.Bytes(bases[a]))
	}
	return h.sum
}

// setup times machine boot and shutdown: ompss.New plus Run of an empty
// main on the workload's configuration.
func (pg *program) setup() (time.Duration, error) {
	t0 := time.Now()
	_, err := ompss.New(pg.cfg).Run(func(*ompss.Context) {})
	return time.Since(t0), err
}

// taskSpecs turns the generated stream into runtime-free task records for
// the layer replays.
func (pg *program) taskSpecs(bases []memspace.Region) []*task.Task {
	out := make([]*task.Task, len(pg.tasks))
	for i := range pg.tasks {
		t := &pg.tasks[i]
		k := t.kernelOf(bases)
		tk := &task.Task{ID: task.ID(i + 1), Name: k.Name(), Device: t.dev, CopyDeps: true, Work: k}
		if k.a.Valid() {
			tk.Deps = append(tk.Deps, task.Dep{Region: k.a, Access: task.In})
		}
		if k.b.Valid() {
			tk.Deps = append(tk.Deps, task.Dep{Region: k.b, Access: task.In})
		}
		acc := task.Out
		if t.inout {
			acc = task.InOut
		}
		tk.Deps = append(tk.Deps, task.Dep{Region: k.out, Access: acc})
		out[i] = tk
	}
	return out
}
