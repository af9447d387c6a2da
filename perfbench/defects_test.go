package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// The two defects found while sizing the workloads (NOTES.md). Each test
// fails while its defect is present; they run only on request:
//
//	cd perfbench && PERFBENCH_DEFECTS=1 go test -run TestDefect -v .
func defectsRequested(t *testing.T) {
	if os.Getenv("PERFBENCH_DEFECTS") == "" {
		t.Skip("set PERFBENCH_DEFECTS=1 to reproduce the known defects")
	}
}

// TestDefectOverlappingLinesSortsEveryCall: one OverlappingLines query
// costs time linear in the resident lines, because each call sorts them
// all. A query that touches one line should not cost 10x more at 10x the
// lines.
func TestDefectOverlappingLinesSortsEveryCall(t *testing.T) {
	defectsRequested(t)
	perQuery := func(lines int) time.Duration {
		c := coherence.NewCache(memspace.GPU(0, 0), coherence.WriteBack, 1<<40)
		for i := 0; i < lines; i++ {
			c.Insert(memspace.Region{Addr: uint64(i) * 4096, Size: 4096}, false)
		}
		const queries = 200
		t0 := time.Now()
		for i := 0; i < queries; i++ {
			c.OverlappingLines(memspace.Region{Addr: uint64(i%lines) * 4096, Size: 64})
		}
		return time.Since(t0) / queries
	}
	small, large := perQuery(200), perQuery(2000)
	t.Logf("OverlappingLines: %v per query at 200 lines, %v at 2000", small, large)
	if large > 4*small {
		t.Fatalf("query cost grows with resident lines (%.1fx at 10x the lines)", float64(large)/float64(small))
	}
}

// TestDefectMasterFetchesFromItself: the heat stencil on four cluster
// nodes with the default (master-routed) configuration fails once it has
// 64 blocks.
func TestDefectMasterFetchesFromItself(t *testing.T) {
	defectsRequested(t)
	_, err := apps.HeatOmpSs(ompss.Config{Cluster: hw.GPUCluster(4)}, apps.HeatParams{N: 64 * 64, BSize: 64, Steps: 10})
	if err != nil {
		t.Fatalf("heat on GPUCluster(4), default config, 64 blocks: %s", strings.SplitN(err.Error(), "\n", 2)[0])
	}
}
