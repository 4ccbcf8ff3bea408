// Package obstest reads instruments out of an obs registry in tests.
package obstest

import (
	"testing"

	"lsmio/internal/obs"
)

// Counter returns the value of the counter named name in r. It fails the
// test when r has no such counter, so an assertion on a misspelled name
// cannot pass by reading zero.
func Counter(t testing.TB, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("obs: the registry has no counter %q", name)
	}
	return v
}

// Gauge returns the value of the gauge named name in r. It fails the
// test when r has no such gauge.
func Gauge(t testing.TB, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Snapshot().Gauges[name]
	if !ok {
		t.Fatalf("obs: the registry has no gauge %q", name)
	}
	return v
}
