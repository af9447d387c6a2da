package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

const measureMinReps = 3

// setupsPerRep boots are timed after every measured repetition (and
// serve-mix round), so set-up time samples the same stretch of host time
// as the main metrics rather than one moment of it.
const setupsPerRep = 10

// timeSetups times n boots, each from a collected heap, and returns
// their host seconds.
func timeSetups(boot func() (time.Duration, error), n int, res *result) []float64 {
	var setups []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := boot()
		if !res.check(wrap("setup", err)) {
			break
		}
		setups = append(setups, d.Seconds())
	}
	return setups
}

// scaled returns xs, each multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runRuntimeWorkload measures one runtime workload. Untraced repetitions
// give the end-to-end numbers; every run of the command also executes the
// validated twin, which must match the serial reference checksum and the
// cost-only virtual time exactly. With --trace the traced run and the
// layer replays add the per-layer numbers. End-to-end host times are at
// reference speed (speed.go); the per-layer ledger stays in wall time,
// the clock its replays are timed in.
func runRuntimeWorkload(o options) (*result, error) {
	pg := programs[o.workload](o.seed, o.scale)
	res := &result{}
	ntasks := float64(len(pg.tasks))

	budget := secondsDur(o.seconds)
	if o.trace {
		budget /= 3 // the traced runs and the replays take the rest
	}
	var setups []float64
	reps, err := pg.measure(budget, res, &setups)
	if err != nil {
		return nil, err
	}
	virt := reps[0].stats.ElapsedSeconds
	var hostS, refS, speed, allocPer, rss []float64
	for _, r := range reps {
		hostS = append(hostS, r.host.Seconds())
		refS = append(refS, r.host.Seconds()*r.speed)
		speed = append(speed, r.speed)
		allocPer = append(allocPer, float64(r.allocBytes)/ntasks)
		rss = append(rss, r.rssMB)
	}
	hostMed, refMed := median(hostS), median(refS)

	want := pg.serialChecksum()
	vcfg := pg.cfg
	vcfg.Validate = true
	vr, err := pg.run(vcfg)
	if err == nil {
		err = errors.Join(sameVirt("validated twin", vr.stats.ElapsedSeconds, virt), eqChecksum(vr.checksum, want))
	}
	res.check(err)
	fmt.Fprintf(o.stdout, "run %s tasks=%d reps=%d setups=%d virt_elapsed_s=%.9g host_s_median=%.6g host_s_iqr=%.3g speed_factor_median=%.4g ref_s_median=%.6g ref_s_iqr=%.3g checksum=%016x serial=%016x\n",
		pg.name, len(pg.tasks), len(reps), len(setups), virt, hostMed, quantile(hostS, 0.75)-quantile(hostS, 0.25), median(speed), refMed, quantile(refS, 0.75)-quantile(refS, 0.25), vr.checksum, want)

	if !o.trace {
		res.add("setup_s", median(setups), "s")
		res.add("host_ops_per_s", ntasks/refMed, "1/s")
		res.add("latency_p50_ms", refMed*1e3, "ms")
		res.add("alloc_bytes_per_op", median(allocPer), "B")
		res.add("max_rss_mb", median(rss), "MB")
		return res, nil
	}
	if err := pg.traced(o, reps[0], hostMed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// measure repeats the cost-only run until budget has passed (at least
// measureMinReps times), timing set-up boots after each; a speed bracket
// around each repetition and its boots gives their reference-speed factor,
// and setups receives the boots at reference speed. Every repetition must
// reproduce the first one's virtual time exactly.
func (pg *program) measure(budget time.Duration, res *result, setups *[]float64) ([]runResult, error) {
	// One untimed warm-up run lets the heap grow and lazy set-up finish.
	if _, err := pg.run(pg.cfg); !res.check(err) {
		return nil, err
	}
	var reps []runResult
	d := after(budget)
	for len(reps) < measureMinReps || !d.passed() {
		br := openBracket()
		runtime.GC() // start every repetition from the same heap state
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		r, err := pg.run(pg.cfg)
		rss, rerr := peakRSSMB()
		if rerr != nil {
			return nil, rerr
		}
		r.rssMB = rss
		if err == nil && len(reps) > 0 {
			err = sameVirt("repetition", r.stats.ElapsedSeconds, reps[0].stats.ElapsedSeconds)
		}
		if !res.check(err) {
			if len(reps) == 0 {
				return nil, err
			}
			break
		}
		boots := timeSetups(pg.setup, setupsPerRep, res)
		r.speed = br.close()
		reps = append(reps, r)
		*setups = append(*setups, scaled(boots, r.speed)...)
	}
	return reps, nil
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func sameVirt(what string, got, want float64) error {
	if got != want {
		return fmt.Errorf("%s: virtual elapsed %.12g s differs from the cost-only run's %.12g s", what, got, want)
	}
	return nil
}

func eqChecksum(got, want uint64) error {
	if got != want {
		return fmt.Errorf("validated checksum %016x differs from the serial reference %016x", got, want)
	}
	return nil
}
