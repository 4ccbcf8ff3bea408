package robustness

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lsmio/internal/obs"
)

// dumpTraceOnFailure registers a cleanup that writes the registry's
// bounded trace ring to TRACE_<test>.txt in the package directory when
// the test fails. The robustness sweeps drive long fault-injection
// scenarios whose failures are hard to reconstruct from assertion
// messages alone; the event ring (flushes, compactions, stalls, hedges,
// breaker trips, drains, quarantines) is the post-mortem, and CI
// uploads the dumps as artifacts.
func dumpTraceOnFailure(t *testing.T, label string, reg *obs.Registry) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		name := t.Name()
		if label != "" {
			name += "_" + label
		}
		name = "TRACE_" + strings.NewReplacer("/", "_", " ", "_").Replace(name) + ".txt"
		f, err := os.Create(name)
		if err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		defer f.Close()
		if err := reg.Trace().Dump(f); err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		// Append the full metrics table (per-tenant svc counters, shard
		// states, supervisor restart/MTTR stats) — the chaos sweeps'
		// failures usually need both the event ring and the counters.
		fmt.Fprintf(f, "\n---- metrics snapshot ----\n")
		if err := reg.Snapshot().WriteTable(f); err != nil {
			t.Logf("metrics dump: %v", err)
		}
		t.Logf("trace ring dumped to %s (%d events, %d dropped)",
			name, len(reg.Trace().Events()), reg.Trace().Dropped())
	})
}
