package svc

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"lsmio/internal/obs"
)

// QuotaError reports a request rejected by fair-share admission: the
// tenant's byte-token debt is so deep that admitting the request would
// mean waiting longer than the configured MaxWait. It is retryable —
// resil.Classify maps it to ClassTransient — and RetryAfter tells the
// client how long the bucket needs to drain before the request would
// be admitted.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("svc: tenant %q over bytes quota (retry after %v)", e.Tenant, e.RetryAfter)
}

// TransientFault marks the rejection retryable for resil.Classify.
func (e *QuotaError) TransientFault() bool { return true }

// TenantConfig sets a tenant's fair-share weight and hard quotas. The
// zero value means weight 1 and no per-tenant caps (the tenant is still
// bounded by its weighted share of the service capacity, when one is
// configured).
type TenantConfig struct {
	// Weight is the tenant's fair-share weight; the tenant's slice of
	// the service capacity is Weight over the sum of all registered
	// weights. Zero or negative means 1.
	Weight float64
	// BytesPerSec is a hard per-tenant rate cap applied on top of the
	// weighted share. Zero means no cap.
	BytesPerSec float64
	// BurstBytes sizes the tenant's token bucket (how far a tenant may
	// run ahead of its sustained rate). Zero picks a default of a
	// quarter second at the tenant's rate.
	BurstBytes float64
}

// AdmissionConfig configures the service-wide fair-share admission
// control. The zero value enables admission with no capacity limits:
// every request is admitted immediately until tenants carry hard
// quotas or a capacity is set.
type AdmissionConfig struct {
	// Disabled turns fair-share admission off entirely (requests go
	// straight to the shards); used as the control arm of the
	// ext-service experiment.
	Disabled bool
	// CapacityBytesPerSec is the aggregate service capacity split
	// between tenants by weight. Zero means unlimited.
	CapacityBytesPerSec float64
	// MaxWait bounds how long a request may be delayed by admission
	// before it is rejected with a QuotaError instead (default 2s).
	MaxWait time.Duration
}

const defaultMaxWait = 2 * time.Second

// gcra is a deterministic token bucket in GCRA (virtual scheduling)
// form: tat is the theoretical arrival time of the next conforming
// request. It needs no background refill process and, running on the
// registry's (virtual) clock, behaves identically under the simulator
// and in real time.
type gcra struct {
	rate  float64 // units per second; <= 0 means unlimited
	burst float64 // bucket depth in units
	tat   time.Duration
}

func unitsDur(n, rate float64) time.Duration {
	return time.Duration(n / rate * float64(time.Second))
}

// need returns how long a request for n units must wait to conform,
// without committing it.
func (g *gcra) need(now time.Duration, n float64) time.Duration {
	if g.rate <= 0 || n <= 0 {
		return 0
	}
	tat := g.tat
	if now > tat {
		tat = now
	}
	w := tat - unitsDur(g.burst, g.rate) - now
	if w < 0 {
		w = 0
	}
	return w
}

// commit reserves n units at now, advancing the bucket debt.
func (g *gcra) commit(now time.Duration, n float64) {
	if g.rate <= 0 || n <= 0 {
		return
	}
	if now > g.tat {
		g.tat = now
	}
	g.tat += unitsDur(n, g.rate)
}

// tenantState is one tenant's admission bucket plus its cached
// instrument handles.
type tenantState struct {
	name   string
	cfg    TenantConfig
	bytesB gcra

	ops     *obs.Counter
	bytesIn *obs.Counter
	rejects *obs.Counter
	admWait *obs.Histogram
	reqLat  *obs.Histogram
}

func (ts *tenantState) weight() float64 {
	if ts.cfg.Weight <= 0 {
		return 1
	}
	return ts.cfg.Weight
}

// admission is the service-wide fair-share admission controller: one
// weighted byte GCRA per tenant, with rates recomputed
// whenever the tenant set or a weight changes.
type admission struct {
	cfg AdmissionConfig
	reg *obs.Registry

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newAdmission(cfg AdmissionConfig, reg *obs.Registry) *admission {
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = defaultMaxWait
	}
	return &admission{cfg: cfg, reg: reg, tenants: make(map[string]*tenantState)}
}

// metricName makes a tenant name safe as a dotted-path segment.
func metricName(tenant string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '/', ' ':
			return '_'
		}
		return r
	}, tenant)
}

// tenant returns (registering on first use) the named tenant's state.
func (a *admission) tenant(name string, cfg *TenantConfig) *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tenants[name]
	if !ok {
		pfx := "svc.tenant." + metricName(name) + "."
		ts = &tenantState{
			name:    name,
			ops:     a.reg.Counter(pfx + "ops"),
			bytesIn: a.reg.Counter(pfx + "bytes_in"),
			rejects: a.reg.Counter(pfx + "quota_rejects"),
			admWait: a.reg.Histogram(pfx + "admission_wait_ns"),
			reqLat:  a.reg.Histogram(pfx + "request_ns"),
		}
		a.tenants[name] = ts
	}
	if cfg != nil {
		ts.cfg = *cfg
	}
	if !ok || cfg != nil {
		a.recomputeLocked()
	}
	return ts
}

// recomputeLocked re-derives every tenant's bucket rate from the
// capacity split by weight, intersected with the tenant's hard caps.
func (a *admission) recomputeLocked() {
	var sumW float64
	for _, ts := range a.tenants {
		sumW += ts.weight()
	}
	for _, ts := range a.tenants {
		var share float64
		if a.cfg.CapacityBytesPerSec > 0 && sumW > 0 {
			share = a.cfg.CapacityBytesPerSec * ts.weight() / sumW
		}
		ts.bytesB.rate = combineRate(ts.cfg.BytesPerSec, share)
		ts.bytesB.burst = burstOr(ts.cfg.BurstBytes, ts.bytesB.rate, 64<<10)
	}
}

// combineRate intersects a hard cap and a fair share: the tighter of
// the two positive rates, unlimited when both are zero.
func combineRate(hard, share float64) float64 {
	switch {
	case hard <= 0:
		return share
	case share <= 0:
		return hard
	case hard < share:
		return hard
	default:
		return share
	}
}

// burstOr picks the configured burst or a default of a quarter second
// at the sustained rate, floored at min.
func burstOr(cfg, rate, min float64) float64 {
	if cfg > 0 {
		return cfg
	}
	b := rate / 4
	if b < min {
		b = min
	}
	return b
}

// admit decides one request of nBytes for tenant ts. It returns
// the admission delay the caller must sleep before proceeding, or a
// QuotaError when the delay would exceed MaxWait. Counters are charged
// on admission (the request will run); rejects are counted separately.
func (a *admission) admit(ts *tenantState, nBytes int) (time.Duration, error) {
	var wait time.Duration
	a.mu.Lock()
	if !a.cfg.Disabled {
		now := a.reg.Now()
		wait = ts.bytesB.need(now, float64(nBytes))
		if wait > a.cfg.MaxWait {
			ts.rejects.Inc()
			a.mu.Unlock()
			return 0, &QuotaError{Tenant: ts.name, RetryAfter: wait}
		}
		ts.bytesB.commit(now, float64(nBytes))
	}
	ts.ops.Inc()
	ts.bytesIn.Add(int64(nBytes))
	a.mu.Unlock()
	ts.admWait.ObserveDuration(wait)
	return wait, nil
}
