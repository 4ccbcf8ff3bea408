package pfs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lsmio/internal/faultfs"
	"lsmio/internal/obs/obstest"
	"lsmio/internal/sim"
)

// faultTestConfig is a small cluster with tight, known retry knobs.
func faultTestConfig() Config {
	return Config{
		ComputeNodes:       1,
		NumOSTs:            2,
		NumOSSs:            1,
		DefaultStripeCount: 1,
		RetryMax:           3,
		RetryBaseDelay:     time.Millisecond,
		RetryMaxDelay:      8 * time.Millisecond,
	}
}

func TestTransientWriteFaultIsRetried(t *testing.T) {
	c := runOnCluster(t, faultTestConfig(), func(c *Cluster, fs *ClientFS) {
		fails := 2
		c.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if write && fails > 0 {
				fails--
				return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: true}
			}
			return nil
		})
		f, err := fs.Create("ckpt.dat")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, err := f.Write(make([]byte, 4096)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Sync(); err != nil {
			t.Errorf("sync after transient faults: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.retries"); n != 2 {
		t.Fatalf("pfs.retries = %d, want 2", n)
	}
	if n := obstest.Counter(t, c.Obs(), "pfs.faults_injected"); n != 2 {
		t.Fatalf("pfs.faults_injected = %d, want 2", n)
	}
}

func TestPermanentWriteFaultSurfacesImmediately(t *testing.T) {
	c := runOnCluster(t, faultTestConfig(), func(c *Cluster, fs *ClientFS) {
		c.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if write {
				return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: false}
			}
			return nil
		})
		f, err := fs.Create("ckpt.dat")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(make([]byte, 4096))
		err = f.Sync()
		if err == nil {
			t.Error("sync succeeded despite permanent OST fault")
			return
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("error does not unwrap to ErrInjected: %v", err)
		}
		if !strings.Contains(err.Error(), "after 1 attempt") {
			t.Errorf("permanent fault was retried: %v", err)
		}
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.retries"); n != 0 {
		t.Fatalf("pfs.retries = %d, want 0 for permanent fault", n)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	cfg := faultTestConfig()
	var elapsed time.Duration
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		c.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if write {
				return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: true}
			}
			return nil
		})
		f, err := fs.Create("ckpt.dat")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(make([]byte, 4096))
		p := c.Kernel().Current()
		start := p.Now()
		err = f.Sync()
		elapsed = p.Now().Sub(start)
		if err == nil {
			t.Error("sync succeeded with every attempt faulting")
			return
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("error does not unwrap to ErrInjected: %v", err)
		}
		if !strings.Contains(err.Error(), "after 4 attempt") {
			t.Errorf("want failure after RetryMax+1 = 4 attempts, got: %v", err)
		}
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.retries"); n != int64(cfg.RetryMax) {
		t.Fatalf("pfs.retries = %d, want %d", n, cfg.RetryMax)
	}
	// Backoff is charged on the virtual clock: 3 retries with jitter ≥ 50%
	// of 1ms, 2ms, 4ms → at least 3.5ms of virtual time must have passed.
	if min := 3500 * time.Microsecond; elapsed < min {
		t.Fatalf("virtual time across retries = %v, want ≥ %v", elapsed, min)
	}
}

func TestTransientReadFaultIsRetried(t *testing.T) {
	c := runOnCluster(t, faultTestConfig(), func(c *Cluster, fs *ClientFS) {
		f, err := fs.Create("data")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		payload := []byte("hello, ost")
		f.Write(payload)
		if err := f.Sync(); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		fails := 1
		c.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if !write && fails > 0 {
				fails--
				return &faultfs.InjectedError{Op: faultfs.OpRead, Transient: true}
			}
			return nil
		})
		buf := make([]byte, len(payload))
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Errorf("read after transient fault: %v", err)
			return
		}
		if string(buf) != string(payload) {
			t.Errorf("read %q, want %q", buf, payload)
		}
		f.Close()
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.retries"); n != 1 {
		t.Fatalf("pfs.retries = %d, want 1", n)
	}
}

// TestReadRetryBudgetExhaustion is the regression test for routing the
// read path through resil.Policy: a persistently flaky OST consumes the
// whole retry budget with backoff charged on the virtual clock, then
// surfaces the classified transient error — it must not succeed, must
// not retry forever, and must report every attempt.
func TestReadRetryBudgetExhaustion(t *testing.T) {
	cfg := faultTestConfig()
	var elapsed time.Duration
	c := runOnCluster(t, cfg, func(c *Cluster, fs *ClientFS) {
		f, err := fs.Create("data")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(make([]byte, 4096))
		if err := f.Sync(); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		c.InjectFaults(func(write bool, ostIdx, attempt int) error {
			if !write {
				return &faultfs.InjectedError{Op: faultfs.OpRead, Transient: true}
			}
			return nil
		})
		p := c.Kernel().Current()
		start := p.Now()
		_, err = f.ReadAt(make([]byte, 4096), 0)
		elapsed = p.Now().Sub(start)
		if err == nil {
			t.Error("read succeeded with every attempt faulting")
			return
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("error does not unwrap to ErrInjected: %v", err)
		}
		if !strings.Contains(err.Error(), "after 4 attempt") {
			t.Errorf("want read failure after RetryMax+1 = 4 attempts, got: %v", err)
		}
	})
	if n := obstest.Counter(t, c.Obs(), "pfs.retries"); n != int64(cfg.RetryMax) {
		t.Fatalf("pfs.retries = %d, want %d", n, cfg.RetryMax)
	}
	// Jitter floor: 3 backoffs of at least 0.5×(1ms, 2ms, 4ms).
	if min := 3500 * time.Microsecond; elapsed < min {
		t.Fatalf("virtual time across read retries = %v, want ≥ %v", elapsed, min)
	}
}

func TestBackoffIsDeterministic(t *testing.T) {
	run := func() (time.Duration, error) {
		k := sim.NewKernel()
		c := NewCluster(k, faultTestConfig())
		var elapsed time.Duration
		var syncErr error
		k.Spawn("client", func(p *sim.Proc) {
			fs := c.Client(0)
			fails := 3
			c.InjectFaults(func(write bool, ostIdx, attempt int) error {
				if write && fails > 0 {
					fails--
					return &faultfs.InjectedError{Op: faultfs.OpWrite, Transient: true}
				}
				return nil
			})
			f, err := fs.Create("x")
			if err != nil {
				syncErr = err
				return
			}
			f.Write(make([]byte, 1024))
			start := p.Now()
			syncErr = f.Sync()
			elapsed = p.Now().Sub(start)
		})
		if err := k.Run(); err != nil {
			return 0, err
		}
		return elapsed, syncErr
	}
	e1, err1 := run()
	e2, err2 := run()
	if err1 != nil || err2 != nil {
		t.Fatalf("runs errored: %v / %v", err1, err2)
	}
	if e1 != e2 {
		t.Fatalf("retry timing not deterministic: %v vs %v", e1, e2)
	}
	if e1 == 0 {
		t.Fatal("no virtual time charged for retries")
	}
}
