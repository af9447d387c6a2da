package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSeededGenerators pins the generator contract: the same seed yields
// the same inputs, a different seed different ones.
func TestSeededGenerators(t *testing.T) {
	sc := scales["full"]
	for name, gen := range programs {
		a, b := gen(DefaultSeed, sc).fingerprint(), gen(DefaultSeed, sc).fingerprint()
		if a != b {
			t.Errorf("%s: seed %d gave two different programs: %s vs %s", name, DefaultSeed, a, b)
		}
		if c := gen(HeldOutSeed, sc).fingerprint(); c == a {
			t.Errorf("%s: seeds %d and %d gave the same program %s", name, DefaultSeed, HeldOutSeed, a)
		}
	}
	n := sc.serveRequests
	first := serveStream(roundSeed(DefaultSeed, 0), n)
	if !reflect.DeepEqual(first, serveStream(roundSeed(DefaultSeed, 0), n)) {
		t.Errorf("serve-mix: seed %d gave two different request streams", DefaultSeed)
	}
	if reflect.DeepEqual(first, serveStream(roundSeed(HeldOutSeed, 0), n)) {
		t.Errorf("serve-mix: seeds %d and %d gave the same request stream", DefaultSeed, HeldOutSeed)
	}
	if distinct(first) != serveKeys {
		t.Errorf("serve-mix: a round requests %d distinct keys, want every one of %d", distinct(first), serveKeys)
	}
}

// TestSameSeedSameVirtualMetrics runs each tiny runtime program twice at
// one seed: the virtual-time results must be identical.
func TestSameSeedSameVirtualMetrics(t *testing.T) {
	for name, gen := range programs {
		pg := gen(DefaultSeed, scales["tiny"])
		r1, err := pg.run(pg.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2, err := gen(DefaultSeed, scales["tiny"]).run(pg.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s1, s2 := r1.stats, r2.stats
		s1.Metrics, s2.Metrics = nil, nil
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1.stats.Metrics, r2.stats.Metrics) {
			t.Errorf("%s: two runs at one seed differ in virtual results:\n%+v\n%+v", name, s1, s2)
		}
	}
}

// fingerprint summarizes a generated program for the seed tests.
func (pg *program) fingerprint() string {
	h := newHash()
	for _, sz := range pg.arrays {
		h.add(sz)
	}
	for _, t := range pg.tasks {
		h.add(uint64(t.dev), uint64(t.kind), uint64(t.cost), t.salt, t.write.off, t.write.size, uint64(t.write.arr))
		for _, r := range t.reads {
			h.add(uint64(r.arr), r.off, r.size)
		}
	}
	return fmt.Sprintf("%s/%d/%016x", pg.name, len(pg.tasks), h.sum)
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestEveryWorkloadPrintsExactlyItsMetrics runs each workload tiny in both
// modes: the JSON line must carry every metric BENCHMARK.json names for
// the mode, with its unit, and nothing else, and each must also be
// printed on its own metric line.
func TestEveryWorkloadPrintsExactlyItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, command knows %v", names, workloads)
	}
	wantLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		if wantLayer[m.name] != m.unit {
			t.Errorf("per-layer metric %s (%s) is not in BENCHMARK.json with that unit", m.name, m.unit)
		}
	}
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := realMain([]string{"--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", tr,
				"--scale", "tiny", "--out", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w, tr, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, tr, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, tr, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if tr == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: printed %d metrics, BENCHMARK.json names %d", w, tr, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s missing or not in %s: %+v", w, tr, m.Name, m.Unit, got)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s trace=%s: no metric line for %s", w, tr, m.Name)
				}
				if tr == "0" && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
		}
	}
}

// TestRoundOpensAtMostNprocConnections: the serve-mix load generator
// never opens more connections than there are cores.
func TestRoundOpensAtMostNprocConnections(t *testing.T) {
	r, err := runRound(requestBodies(serveStream(roundSeed(DefaultSeed, 0), scales["tiny"].serveRequests)))
	if err != nil {
		t.Fatal(err)
	}
	if r.conns < 1 || r.conns > int64(runtime.NumCPU()) {
		t.Fatalf("a round opened %d connections, want 1..nproc (%d)", r.conns, runtime.NumCPU())
	}
}
