package bench

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
)

// Ablations isolates each runtime mechanism on the Matmul workload —
// the design-choice studies DESIGN.md §5 calls for, beyond the paper's
// own parameter grid. Also available as Go benchmarks in
// ablation_bench_test.go.
func Ablations(o Options) ([]Row, error) {
	p := fig5Params(o)
	pCluster := fig9MatmulParams(o)
	pCluster.Init = apps.InitSMP

	var pts []point
	multi := func(config string, mutate func(*ompss.Config)) {
		pts = append(pts, point{config: config, run: func() (float64, string, error) {
			cfg := multiGPUConfig(4, "wb", defaultSched())
			mutate(&cfg)
			res, err := apps.MatmulOmpSs(cfg, p)
			return res.Metric, "GFLOPS", err
		}})
	}
	cluster := func(config string, nodes int, mutate func(*ompss.Config)) {
		pts = append(pts, point{config: config, run: func() (float64, string, error) {
			cfg := clusterConfig(o, nodes)
			cfg.SlaveToSlave = true
			cfg.Presend = 2
			mutate(&cfg)
			res, err := apps.MatmulOmpSs(cfg, pCluster)
			return res.Metric, "GFLOPS", err
		}})
	}

	for _, on := range []bool{false, true} {
		multi(fmt.Sprintf("4gpu overlap=%v", on), func(c *ompss.Config) { c.Overlap = on })
	}
	for _, on := range []bool{false, true} {
		multi(fmt.Sprintf("4gpu overlap prefetch=%v", on), func(c *ompss.Config) { c.Overlap = true; c.Prefetch = on })
	}
	for _, on := range []bool{false, true} {
		multi(fmt.Sprintf("4gpu nonblocking=%v", on), func(c *ompss.Config) { c.NonBlockingCache = on })
	}
	for _, on := range []bool{false, true} {
		multi(fmt.Sprintf("4gpu affinity steal=%v", on), func(c *ompss.Config) { c.Scheduler = ompss.Affinity; c.Steal = on })
	}
	for _, presend := range []int{0, 1, 2, 4} {
		cluster(fmt.Sprintf("4node presend=%d", presend), 4, func(c *ompss.Config) { c.Presend = presend })
	}
	for _, on := range []bool{false, true} {
		cluster(fmt.Sprintf("8node stos=%v", on), 8, func(c *ompss.Config) { c.SlaveToSlave = on })
	}
	for _, threads := range []int{1, 2} {
		cluster(fmt.Sprintf("8node commthreads=%d", threads), 8, func(c *ompss.Config) { c.CommThreads = threads })
	}
	return runGrid("ablations", o, pts)
}
