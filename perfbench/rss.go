package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// Peak resident set per repetition comes from the kernel's own high-water
// mark: resetPeakRSS writes "5" to /proc/self/clear_refs, which sets
// VmHWM to the current resident set, and peakRSSMB reads VmHWM back from
// /proc/self/status. Taking a peak per repetition and reporting their
// median keeps one garbage-collection cycle's timing from deciding the
// metric.

func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is VmHWM since the last reset, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak resident set: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err != nil {
				return 0, fmt.Errorf("peak resident set: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak resident set: no VmHWM in /proc/self/status")
}
