package bench

import (
	"strings"
	"testing"
)

// TestStressRunCompletes checks the stress driver runs a small grid to
// completion with and without overlapping columns and reports a positive
// rate.
func TestStressRunCompletes(t *testing.T) {
	for _, overlap := range []int{0, 3} {
		rate, err := stressRun(200, 4, overlap)
		if err != nil {
			t.Fatalf("overlap %d: %v", overlap, err)
		}
		if rate <= 0 {
			t.Fatalf("overlap %d: rate = %v, want > 0", overlap, rate)
		}
	}
}

// TestStressExperimentRows checks the registered experiment emits the
// expected grid with tasks/s units and honors the size overrides.
func TestStressExperimentRows(t *testing.T) {
	rows, err := Stress(Options{StressWidth: 300, StressDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Unit != "tasks/s" {
			t.Fatalf("row %q unit = %q, want tasks/s", r.Config, r.Unit)
		}
		if r.Value <= 0 {
			t.Fatalf("row %q value = %v, want > 0", r.Config, r.Value)
		}
		if !strings.Contains(r.Config, "w=300 d=3") {
			t.Fatalf("row config %q missing size override", r.Config)
		}
	}
}

// TestStressExcludedFromAll pins the registration contract: stress is
// addressable by name but not part of the deterministic "all" suite.
func TestStressExcludedFromAll(t *testing.T) {
	for _, e := range All() {
		if e.Name == "stress" {
			t.Fatal("stress must not be in All(): its rows are wall-clock values")
		}
	}
	if _, ok := ByName("stress"); !ok {
		t.Fatal("ByName(stress) not found")
	}
}

// BenchmarkStress measures end-to-end submission+drain throughput on the
// strided layered grid (20k tasks per iteration), reporting tasks/sec.
func BenchmarkStress(b *testing.B) {
	const width, depth = 5000, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stressRun(width, depth, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(width*depth*b.N)/b.Elapsed().Seconds(), "tasks/s")
}
