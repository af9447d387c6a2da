// Package serve is the resident experiment service: the batch harness of
// internal/bench exposed as a long-running HTTP server with a
// content-hash result cache, in-flight request deduplication, a bounded
// worker pool and streaming progress.
//
// The design leans on one property the runtime has guaranteed since PR 1:
// every experiment is deterministic, so a result is a pure function of
// its canonicalized request plus the binary that computed it. That makes
// every result perfectly cacheable — the cache key is a versioned content
// hash of the request, two identical in-flight requests share one
// computation (singleflight), and a warm hit returns the byte-exact
// artifact a cold run would have produced.
//
// Determinism contract (DESIGN.md §12): no wall-clock value ever feeds
// the cache key or the cached result bytes. Wall time exists in this
// package only at the server edge — latency measurement, progress event
// timestamps — and every such site carries a reasoned
// //ompss:wallclock-ok suppression.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/bsc-repro/ompss/internal/bench"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/sched"
)

// KeyVersion versions the cache-key schema itself. Bump it whenever the
// canonical encoding below, the result artifact layout, or the meaning of
// any request field changes — old cached bytes must never be served for a
// request a newer binary would compute differently.
const KeyVersion = "1"

// Request is one experiment request as accepted by POST /v1/experiments.
// The zero value of every optional field means "paper default", and the
// canonical encoding omits zero fields, so a request written with and
// without explicit defaults hashes identically.
type Request struct {
	// Experiment is the bench experiment name (fig5..fig13, table1,
	// ablations, resilience, heat, stress). Required.
	Experiment string `json:"experiment"`

	// Quick selects the reduced problem sizes.
	Quick bool `json:"quick,omitempty"`

	// GridPoint restricts the run to the grid point (or derived row)
	// whose config label matches exactly.
	GridPoint string `json:"grid_point,omitempty"`

	// Seed seeds the fault plan's drop process. Setting it (or any
	// fault_plan field) arms the resilience machinery on the cluster
	// experiments; resilience manages its own per-scenario plans and
	// rejects it.
	Seed uint64 `json:"seed,omitempty"`

	// FaultPlan injects deterministic faults into the cluster
	// experiments (fig9-13, heat).
	FaultPlan *FaultPlanSpec `json:"fault_plan,omitempty"`

	// Scheduler overrides the scheduler of the cluster experiments
	// ("bf", "default"/"dependencies", "affinity", "heft"). The multi-GPU
	// figures sweep the scheduler as part of their grid; use grid_point.
	Scheduler string `json:"scheduler,omitempty"`

	// Trace records the designated grid point's Perfetto trace (fig10
	// only) and stores it with the result.
	Trace bool `json:"trace,omitempty"`

	// Stress grid shape overrides (stress experiment only).
	StressWidth   int `json:"stress_width,omitempty"`
	StressDepth   int `json:"stress_depth,omitempty"`
	StressOverlap int `json:"stress_overlap,omitempty"`
}

// FaultPlanSpec is the JSON form of faults.Plan. Durations are virtual
// nanoseconds — integers, so the canonical encoding is exact.
type FaultPlanSpec struct {
	DropRate            float64     `json:"drop_rate,omitempty"`
	LatencyMultiplier   float64     `json:"latency_multiplier,omitempty"`
	BandwidthMultiplier float64     `json:"bandwidth_multiplier,omitempty"`
	Stalls              []StallSpec `json:"stalls,omitempty"`
	Crashes             []CrashSpec `json:"crashes,omitempty"`
	AckTimeoutNS        int64       `json:"ack_timeout_ns,omitempty"`
	MaxAttempts         int         `json:"max_attempts,omitempty"`
	HeartbeatIntervalNS int64       `json:"heartbeat_interval_ns,omitempty"`
	MissThreshold       int         `json:"miss_threshold,omitempty"`
}

// StallSpec freezes one node's link for a window of virtual time.
type StallSpec struct {
	Node       int   `json:"node"`
	AtNS       int64 `json:"at_ns"`
	DurationNS int64 `json:"duration_ns"`
}

// CrashSpec removes one node permanently at a virtual time.
type CrashSpec struct {
	Node int   `json:"node"`
	AtNS int64 `json:"at_ns"`
}

// clusterExperiments are the experiments built on clusterConfig, the only
// ones whose scheduler and fault plan a request may override.
var clusterExperiments = map[string]bool{
	"fig9": true, "fig10": true, "fig11": true, "fig12": true,
	"fig13": true, "heat": true,
}

// ParseRequest decodes and validates one request body. Unknown fields are
// an error: a typo'd knob must not silently hash to the default
// configuration's key and return the wrong cached result.
func ParseRequest(body io.Reader) (Request, error) {
	var r Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("decode request: %w", err)
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// maxStressTasks caps a stress request's grid (width x depth, defaults
// filled in) at the full default grid, 100,000 x 10: one request must not
// hold a worker for an unbounded run.
const maxStressTasks = 1_000_000

// Validate rejects requests that are malformed or that carry knobs the
// named experiment would silently ignore — silent aliasing is worse than
// an error, because two requests meaning the same run must share a cache
// entry and two requests meaning different runs must not.
func (r Request) Validate() error {
	if r.Experiment == "" {
		return fmt.Errorf("experiment is required")
	}
	if _, ok := bench.ByName(r.Experiment); !ok {
		return fmt.Errorf("unknown experiment %q", r.Experiment)
	}
	cluster := clusterExperiments[r.Experiment]
	switch r.Scheduler {
	case "", "bf", "default", "dependencies", "affinity", "heft":
	default:
		return fmt.Errorf("unknown scheduler %q (bf, default, affinity, heft)", r.Scheduler)
	}
	if r.Scheduler != "" && !cluster {
		return fmt.Errorf("scheduler override applies only to cluster experiments (fig9-13, heat); %s sweeps or pins its own", r.Experiment)
	}
	if (r.Seed != 0 || r.FaultPlan != nil) && !cluster {
		return fmt.Errorf("fault injection applies only to cluster experiments (fig9-13, heat)")
	}
	if r.Trace && r.Experiment != "fig10" {
		return fmt.Errorf("trace recording has a designated grid point only in fig10")
	}
	if (r.StressWidth != 0 || r.StressDepth != 0 || r.StressOverlap != 0) && r.Experiment != "stress" {
		return fmt.Errorf("stress_* parameters apply only to the stress experiment")
	}
	if r.StressWidth < 0 || r.StressDepth < 0 || r.StressOverlap < 0 {
		return fmt.Errorf("stress_* parameters must be >= 0")
	}
	// Compared by division: width*depth can overflow int.
	w, d := bench.StressShape(bench.Options{Quick: r.Quick, StressWidth: r.StressWidth, StressDepth: r.StressDepth})
	if w > maxStressTasks/d {
		return fmt.Errorf("stress grid %d x %d exceeds %d tasks", w, d, maxStressTasks)
	}
	if p := r.FaultPlan; p != nil {
		if p.DropRate < 0 || p.DropRate > 1 {
			return fmt.Errorf("fault_plan.drop_rate must be in [0,1]")
		}
		if p.LatencyMultiplier < 0 || p.BandwidthMultiplier < 0 {
			return fmt.Errorf("fault_plan multipliers must be >= 0")
		}
		if p.AckTimeoutNS < 0 || p.HeartbeatIntervalNS < 0 || p.MaxAttempts < 0 || p.MissThreshold < 0 {
			return fmt.Errorf("fault_plan protocol knobs must be >= 0")
		}
		for _, st := range p.Stalls {
			if st.Node < 0 || st.AtNS < 0 || st.DurationNS <= 0 {
				return fmt.Errorf("fault_plan.stalls entries need node >= 0, at_ns >= 0, duration_ns > 0")
			}
		}
		for _, c := range p.Crashes {
			if c.Node < 0 || c.AtNS < 0 {
				return fmt.Errorf("fault_plan.crashes entries need node >= 0, at_ns >= 0")
			}
			if c.Node == 0 {
				return fmt.Errorf("fault_plan.crashes cannot name node 0: the master is the recovery coordinator and cannot fail")
			}
		}
	}
	return nil
}

// canonical renders the request as sorted key=value lines, omitting
// zero-valued fields and normalizing scheduler aliases. This — not the
// client's JSON — is what gets hashed, so field order, whitespace and
// explicit defaults never split the cache.
func (r Request) canonical() []byte {
	var b bytes.Buffer
	kv := func(k, v string) {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		b.WriteByte('\n')
	}
	// Keys are emitted in sorted order; keep this list alphabetical when
	// adding fields, and bump KeyVersion if an existing key changes
	// meaning.
	kv("experiment", r.Experiment)
	if p := r.FaultPlan; p != nil {
		if p.AckTimeoutNS != 0 {
			kv("fault.ack_timeout_ns", strconv.FormatInt(p.AckTimeoutNS, 10))
		}
		if p.BandwidthMultiplier != 0 {
			kv("fault.bandwidth_multiplier", canonFloat(p.BandwidthMultiplier))
		}
		for i, c := range p.Crashes {
			kv("fault.crash."+strconv.Itoa(i),
				strconv.Itoa(c.Node)+"@"+strconv.FormatInt(c.AtNS, 10))
		}
		if p.DropRate != 0 {
			kv("fault.drop_rate", canonFloat(p.DropRate))
		}
		if p.HeartbeatIntervalNS != 0 {
			kv("fault.heartbeat_interval_ns", strconv.FormatInt(p.HeartbeatIntervalNS, 10))
		}
		if p.LatencyMultiplier != 0 {
			kv("fault.latency_multiplier", canonFloat(p.LatencyMultiplier))
		}
		if p.MaxAttempts != 0 {
			kv("fault.max_attempts", strconv.Itoa(p.MaxAttempts))
		}
		if p.MissThreshold != 0 {
			kv("fault.miss_threshold", strconv.Itoa(p.MissThreshold))
		}
		for i, st := range p.Stalls {
			kv("fault.stall."+strconv.Itoa(i),
				strconv.Itoa(st.Node)+"@"+strconv.FormatInt(st.AtNS, 10)+"+"+strconv.FormatInt(st.DurationNS, 10))
		}
		kv("fault_plan", "1") // an armed zero plan still changes the run
	}
	if r.GridPoint != "" {
		kv("grid_point", r.GridPoint)
	}
	if r.Quick {
		kv("quick", "1")
	}
	if s := canonSched(r.Scheduler); s != "" {
		kv("scheduler", s)
	}
	if r.Seed != 0 {
		kv("seed", strconv.FormatUint(r.Seed, 10))
	}
	if r.StressDepth != 0 {
		kv("stress_depth", strconv.Itoa(r.StressDepth))
	}
	if r.StressOverlap != 0 {
		kv("stress_overlap", strconv.Itoa(r.StressOverlap))
	}
	if r.StressWidth != 0 {
		kv("stress_width", strconv.Itoa(r.StressWidth))
	}
	if r.Trace {
		kv("trace", "1")
	}
	return b.Bytes()
}

// canonFloat renders a float exactly (hex mantissa/exponent), so two
// floats hash equal iff they are the same value — no decimal rounding.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// canonSched normalizes the "default" alias to its policy name. Every
// other policy (including "heft") is already canonical and passes
// through unchanged, so no two distinct policies ever share a cache key.
func canonSched(s string) string {
	if s == "default" {
		return "dependencies"
	}
	return s
}

// Hash returns the versioned content hash of the request: the cache key.
// The preamble binds the key to the key-schema version and the build that
// computes results, so a redeploy with different code never serves stale
// bytes.
func (r Request) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "ompss-serve key=v%s build=%s\n", KeyVersion, BuildID())
	h.Write(r.canonical())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Options translates the request into harness options. The grid of one
// request runs sequentially (Parallel left at 0): concurrency in the
// service comes from running many requests at once, and a sequential grid
// keeps one request's cost proportional to one worker.
func (r Request) Options() bench.Options {
	o := bench.Options{
		Quick:         r.Quick,
		GridPoint:     r.GridPoint,
		StressWidth:   r.StressWidth,
		StressDepth:   r.StressDepth,
		StressOverlap: r.StressOverlap,
		Scheduler:     sched.Policy(canonSched(r.Scheduler)),
	}
	if r.Seed != 0 || r.FaultPlan != nil {
		plan := &faults.Plan{Seed: r.Seed}
		if p := r.FaultPlan; p != nil {
			plan.DropRate = p.DropRate
			plan.LatencyMultiplier = p.LatencyMultiplier
			plan.BandwidthMultiplier = p.BandwidthMultiplier
			plan.AckTimeout = time.Duration(p.AckTimeoutNS)
			plan.MaxAttempts = p.MaxAttempts
			plan.HeartbeatInterval = time.Duration(p.HeartbeatIntervalNS)
			plan.MissThreshold = p.MissThreshold
			for _, st := range p.Stalls {
				plan.Stalls = append(plan.Stalls, faults.Stall{
					Node: st.Node, At: time.Duration(st.AtNS), Duration: time.Duration(st.DurationNS)})
			}
			for _, c := range p.Crashes {
				plan.Crashes = append(plan.Crashes, faults.Crash{
					Node: c.Node, At: time.Duration(c.AtNS)})
			}
		}
		o.Faults = plan
	}
	return o
}

var (
	buildIDOnce sync.Once
	buildID     string
)

// BuildID identifies the binary computing results, read from the
// embedded build info: the VCS revision (plus a dirty marker) when the
// binary was built from a stamped checkout, else the module version, else
// "dev". It is folded into every cache key, so results computed by
// different code never alias.
func BuildID() string {
	buildIDOnce.Do(func() {
		buildID = "dev"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
		switch {
		case rev != "":
			buildID = rev + modified
		case info.Main.Version != "" && info.Main.Version != "(devel)":
			buildID = info.Main.Version
		}
	})
	return buildID
}
