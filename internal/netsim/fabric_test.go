package netsim

import (
	"testing"
	"time"

	"lsmio/internal/sim"
)

func testConfig(nodes int) Config {
	return Config{Nodes: nodes, Latency: time.Millisecond, Bandwidth: 1e9, MaxPacket: 1 << 20}
}

func TestTransferTime(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	var end sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		f.Transfer(p, 0, 1, 1e9) // 1 GB at 1 GB/s + 1 ms latency
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(time.Second + time.Millisecond)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestDisjointPairsOverlap(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(4))
	ends := make([]sim.Time, 2)
	k.Spawn("s0", func(p *sim.Proc) { f.Transfer(p, 0, 1, 1e9); ends[0] = p.Now() })
	k.Spawn("s1", func(p *sim.Proc) { f.Transfer(p, 2, 3, 1e9); ends[1] = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(time.Second + time.Millisecond)
	if ends[0] != want || ends[1] != want {
		t.Fatalf("ends = %v, want both %v (parallel transfers)", ends, want)
	}
}

func TestSharedReceiverSerializes(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(3))
	ends := make([]sim.Time, 2)
	k.Spawn("s0", func(p *sim.Proc) { f.Transfer(p, 0, 2, 1e9); ends[0] = p.Now() })
	k.Spawn("s1", func(p *sim.Proc) { f.Transfer(p, 1, 2, 1e9); ends[1] = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both target node 2's rx NIC: the slower must finish near 2 s, not 1 s.
	later := ends[0]
	if ends[1] > later {
		later = ends[1]
	}
	if later < sim.Time(1900*time.Millisecond) {
		t.Fatalf("later end = %v, want near 2s (serialized rx)", later)
	}
}

func TestLoopbackIsCheap(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	var end sim.Time
	k.Spawn("s", func(p *sim.Proc) { f.Transfer(p, 0, 0, 1e6); end = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end > sim.Time(time.Millisecond) {
		t.Fatalf("loopback took %v", end)
	}
}

// Each transfer charges its sender one latency plus its own bytes'
// wire time, one after the other.
func TestAccounting(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	var end sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		f.Transfer(p, 0, 1, 100)
		f.Transfer(p, 0, 1, 200)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(2*time.Millisecond + 300*time.Nanosecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestZeroByteTransferPaysLatencyOnly(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testConfig(2))
	var end sim.Time
	k.Spawn("s", func(p *sim.Proc) { f.Transfer(p, 0, 1, 0); end = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(time.Millisecond) {
		t.Fatalf("end = %v, want 1ms", end)
	}
}

func TestLargeTransferChunksShareNIC(t *testing.T) {
	// With MaxPacket chunking, a long transfer must not monopolize the
	// sender's NIC: a short transfer issued mid-way finishes long before
	// the bulk one.
	k := sim.NewKernel()
	f := New(k, Config{Nodes: 3, Latency: time.Microsecond, Bandwidth: 1e9, MaxPacket: 1 << 20})
	var bulkEnd, smallEnd sim.Time
	k.Spawn("bulk", func(p *sim.Proc) {
		f.Transfer(p, 0, 1, 100<<20) // ~105 ms of wire time
		bulkEnd = p.Now()
	})
	k.Spawn("small", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		f.Transfer(p, 0, 2, 1<<20) // same tx NIC
		smallEnd = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if smallEnd >= bulkEnd {
		t.Fatalf("small transfer (%v) starved behind bulk (%v)", smallEnd, bulkEnd)
	}
	if smallEnd > sim.Time(40*time.Millisecond) {
		t.Fatalf("small transfer took too long: %v", smallEnd)
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { New(k, Config{Nodes: 0, Bandwidth: 1}) })
	mustPanic(func() { New(k, Config{Nodes: 1, Bandwidth: 0}) })
	f := New(k, Config{Nodes: 2, Bandwidth: 1e9})
	k.Spawn("oob", func(p *sim.Proc) {
		mustPanic(func() { f.Transfer(p, 0, 5, 10) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
