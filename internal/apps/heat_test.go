package apps

import (
	"fmt"
	"testing"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
)

// The stencil's halo reads partially overlap the neighbouring blocks, so
// a correct checksum here exercises the fragment-based dependence and
// coherence tracking across every machine shape.
func TestHeatOmpSsMatchesSerial(t *testing.T) {
	type heatCase struct {
		name string
		cfg  ompss.Config
		p    HeatParams
	}
	var cases []heatCase
	for _, tc := range []struct {
		nodes, gpus int
	}{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 1}} {
		cases = append(cases, heatCase{
			name: fmt.Sprintf("%dx%d", tc.nodes, tc.gpus),
			cfg: ompss.Config{
				Cluster:          smallCluster(tc.nodes, tc.gpus),
				Validate:         true,
				SlaveToSlave:     true,
				NonBlockingCache: true,
				Steal:            true,
			},
			p: HeatParams{N: 4096, BSize: 512, Steps: 5},
		})
	}
	// Master-routed transfers with many small blocks: the master assembles
	// halos from fragments while other fetches bring some of them home, and
	// must never pull a fragment from itself.
	cases = append(cases, heatCase{
		name: "GPUCluster(4) master-routed",
		cfg:  ompss.Config{Cluster: hw.GPUCluster(4), Validate: true},
		p:    HeatParams{N: 64 * 64, BSize: 64, Steps: 10},
	})
	for _, tc := range cases {
		want := fmt.Sprintf("sum=%.6f", HeatSerialSum(tc.p))
		res, err := HeatOmpSs(tc.cfg, tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Check != want {
			t.Fatalf("%s check = %s, want %s", tc.name, res.Check, want)
		}
		if res.Metric <= 0 {
			t.Fatalf("%s metric = %v", tc.name, res.Metric)
		}
	}
}

func TestHeatOmpSsMatchesSerialAcrossCachePolicies(t *testing.T) {
	p := HeatParams{N: 2048, BSize: 256, Steps: 4}
	want := fmt.Sprintf("sum=%.6f", HeatSerialSum(p))
	for _, policy := range []ompss.CachePolicy{ompss.NoCache, ompss.WriteThrough, ompss.WriteBack} {
		cfg := ompss.Config{
			Cluster:     smallCluster(1, 2),
			Validate:    true,
			CachePolicy: policy,
		}
		res, err := HeatOmpSs(cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Check != want {
			t.Fatalf("%s check = %s, want %s", policy, res.Check, want)
		}
	}
}
