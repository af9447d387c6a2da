package main

import (
	"runtime"
	"sort"
	"time"
)

// The shared hosts this benchmark runs on change speed by tens of percent
// over tens of seconds (co-tenants, frequency), and a run's median cannot
// average that away: the same program and seed measured 0.19–0.35 s per
// repetition within one two-minute run. So every stretch of measured work
// is bracketed by a fixed reference load, and the host times inside it
// are reported at reference speed:
//
//	reported = measured × refLoadNominal / (mean of the two reference times)
//
// The reference load is the benchmark's own code and stdlib only — no
// package of the repository — so a change to the program moves the
// reported figures exactly as it moves wall time, while a host slow-down
// moves the reference load with it and cancels. The run line of each
// workload also prints the raw wall-clock median and the speed factor.

// refLoadNominal is the reference load's time on a quiet 2.1 GHz x86-64
// vCPU, the host the bounds of BENCHMARK.json were sized on; reported
// figures read close to wall time there.
const refLoadNominal = 16 * time.Millisecond

var refSink uint64

// refLoad runs the fixed reference load and returns its wall time. It has
// the mix the runtime's host path has — map updates, allocation, sorting
// and goroutine hand-offs over channels — so it slows down with the host
// the way the measured work does.
func refLoad() time.Duration {
	runtime.GC()
	t0 := time.Now()
	m := make(map[uint64]uint64)
	var h uint64 = 1
	xs := make([]uint64, 0, 1024)
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < 150000; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		m[h%20000] += h
		xs = append(xs, h)
		if len(xs) == cap(xs) {
			sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
			xs = xs[:0]
		}
		if i%8 == 0 {
			ping <- h
			h ^= <-pong
		}
	}
	close(ping)
	refSink += h + uint64(len(m))
	return time.Since(t0)
}

// speedBracket is an open bracket: the reference load has run once before
// the measured work.
type speedBracket struct{ before time.Duration }

func openBracket() speedBracket { return speedBracket{refLoad()} }

// close runs the reference load again and returns the factor that turns
// host times measured inside the bracket into reference-speed times.
func (b speedBracket) close() float64 {
	after := refLoad()
	return 2 * refLoadNominal.Seconds() / (b.before + after).Seconds()
}
