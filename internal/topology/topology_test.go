package topology

import (
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
)

// buildPair wires two single-arbiter buses: bus A has one CPU master,
// one local memory (slave 0) and the bridge target (slave 1); bus B has
// the bridge master (index 0) plus an optional local master, and a
// remote memory (slave 0).
func buildPair(t *testing.T, withLocalB bool) (*System, *Bridge, *bus.Bus, *bus.Bus) {
	t.Helper()
	sys := NewSystem()

	a := bus.New(bus.Config{MaxBurst: 16})
	a.AddMaster("cpu", nil, bus.MasterOpts{})
	a.AddSlave("local-mem", bus.SlaveOpts{})
	bridgeSlave := a.AddSlave("bridge", bus.SlaveOpts{})
	pa, _ := arb.NewPriority([]uint64{1})
	a.SetArbiter(pa)

	b := bus.New(bus.Config{MaxBurst: 16})
	b.AddMaster("bridge", nil, bus.MasterOpts{Tickets: 2})
	if withLocalB {
		b.AddMaster("dsp", nil, bus.MasterOpts{Tickets: 2})
	}
	b.AddSlave("remote-mem", bus.SlaveOpts{})
	if withLocalB {
		mgr, err := core.NewStaticLottery(core.StaticConfig{
			Tickets: []uint64{2, 2},
			Source:  prng.NewXorShift64Star(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.SetArbiter(arb.NewStaticLottery(mgr))
	} else {
		pb, _ := arb.NewPriority([]uint64{1})
		b.SetArbiter(pb)
	}

	ai := sys.AddBus("A", a)
	bi := sys.AddBus("B", b)
	br, err := sys.Connect(ai, bi, BridgeConfig{
		SrcSlave:  bridgeSlave,
		DstMaster: 0,
		DstSlave:  0,
		Delay:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, br, a, b
}

func TestConnectValidation(t *testing.T) {
	sys := NewSystem()
	a := bus.New(bus.Config{})
	a.AddMaster("m", nil, bus.MasterOpts{})
	a.AddSlave("s", bus.SlaveOpts{})
	ai := sys.AddBus("A", a)

	b := bus.New(bus.Config{})
	b.AddMaster("bridge", nil, bus.MasterOpts{})
	b.AddSlave("s", bus.SlaveOpts{})
	bi := sys.AddBus("B", b)

	if _, err := sys.Connect(ai, ai, BridgeConfig{}); err == nil {
		t.Fatal("self-bridge accepted")
	}
	if _, err := sys.Connect(5, bi, BridgeConfig{}); err == nil {
		t.Fatal("bad index accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{DstMaster: 7}); err == nil {
		t.Fatal("bad master accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{SrcSlave: 9}); err == nil {
		t.Fatal("bad slave accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{Delay: -1}); err == nil {
		t.Fatal("negative delay accepted")
	}
	// A target slave missing downstream used to pass here and panic
	// inside bus.Inject at the first drain.
	if _, err := sys.Connect(ai, bi, BridgeConfig{DstSlave: 5}); err == nil {
		t.Fatal("bad destination slave accepted")
	}
	// A negative FIFO cap used to be kept and drop every message.
	if _, err := sys.Connect(ai, bi, BridgeConfig{FifoCap: -1}); err == nil {
		t.Fatal("negative FifoCap accepted")
	}
	if _, err := sys.Connect(ai, bi, BridgeConfig{}); err != nil {
		t.Fatal(err)
	}
	// A second bridge on the same destination master used to be
	// accepted; both then popped their in-flight queues on each of its
	// completions, corrupting Forwarded and the end-to-end latency.
	if _, err := sys.Connect(ai, bi, BridgeConfig{Name: "twin"}); err == nil {
		t.Fatal("second bridge onto one destination master accepted")
	}
}

// TestRunRejectsMisalignedBuses proves Run refuses a system whose buses
// were advanced on their own: drains would otherwise land on the wrong
// cycle of the destination bus.
func TestRunRejectsMisalignedBuses(t *testing.T) {
	sys, _, a, _ := buildPair(t, false)
	if err := a.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(5); err == nil {
		t.Fatalf("misaligned run accepted: system cycle %d, bus A cycle %d", sys.Cycle(), a.Cycle())
	}
}

func TestRunWithoutBusesFails(t *testing.T) {
	if err := NewSystem().Run(5); err == nil {
		t.Fatal("empty system ran")
	}
}

func TestBridgeForwardsEndToEnd(t *testing.T) {
	sys, br, a, b := buildPair(t, false)
	// CPU sends one 4-word message to the bridge at cycle 0.
	a.Inject(0, 4, 1)
	if err := sys.Run(50); err != nil {
		t.Fatal(err)
	}
	if br.Forwarded() != 1 {
		t.Fatalf("forwarded %d", br.Forwarded())
	}
	// Timing: A-side transfer cycles 0-3 (completion 3), +2 delay ->
	// eligible at 5, injected at cycle 5, B-side transfer 5-8. End to
	// end = 8 - 0 + 1 = 9.
	if got := br.AvgEndToEndLatency(); got != 9 {
		t.Fatalf("end-to-end latency %v, want 9", got)
	}
	if w := b.Collector().Words(0); w != 4 {
		t.Fatalf("remote words %d", w)
	}
	if br.Queued() != 0 {
		t.Fatalf("bridge still holds %d", br.Queued())
	}
}

func TestBridgeLocalTrafficUnaffected(t *testing.T) {
	sys, br, a, _ := buildPair(t, false)
	// Messages to the local memory must not cross the bridge.
	a.Inject(0, 4, 0)
	if err := sys.Run(30); err != nil {
		t.Fatal(err)
	}
	if br.Forwarded() != 0 || br.Queued() != 0 {
		t.Fatalf("local traffic crossed the bridge: fwd=%d queued=%d", br.Forwarded(), br.Queued())
	}
}

func TestBridgeContendsOnRemoteBus(t *testing.T) {
	// With a saturating local master on bus B and a 50/50 lottery, the
	// bridge's transactions still get through (no starvation).
	sys, br, a, b := buildPair(t, true)
	// Local DSP saturates bus B.
	stop := int64(4000)
	b.OnCycle = func(cycle int64, bb *bus.Bus) {
		if bb.Master(1).QueueLen() < 2 {
			bb.Inject(1, 8, 0)
		}
	}
	// CPU streams messages across the bridge.
	a.OnCycle = func(cycle int64, ab *bus.Bus) {
		if cycle < stop && cycle%20 == 0 {
			ab.Inject(0, 4, 1)
		}
	}
	if err := sys.Run(6000); err != nil {
		t.Fatal(err)
	}
	if br.Forwarded() < 150 {
		t.Fatalf("bridge starved: forwarded %d of ~200", br.Forwarded())
	}
	// The lottery must have kept the remote bus shared.
	bwBridge := b.Collector().BandwidthFraction(0)
	bwLocal := b.Collector().BandwidthFraction(1)
	if bwBridge == 0 || bwLocal == 0 {
		t.Fatalf("remote sharing broken: bridge %v local %v", bwBridge, bwLocal)
	}
}

func TestBridgeFifoOverflowDrops(t *testing.T) {
	sys := NewSystem()
	a := bus.New(bus.Config{MaxBurst: 16})
	a.AddMaster("cpu", nil, bus.MasterOpts{})
	bs := a.AddSlave("bridge", bus.SlaveOpts{})
	pa, _ := arb.NewPriority([]uint64{1})
	a.SetArbiter(pa)

	b := bus.New(bus.Config{MaxBurst: 16})
	b.AddMaster("bridge", nil, bus.MasterOpts{})
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: 63}) // glacial remote bus
	pb, _ := arb.NewPriority([]uint64{1})
	b.SetArbiter(pb)

	ai := sys.AddBus("A", a)
	bi := sys.AddBus("B", b)
	br, err := sys.Connect(ai, bi, BridgeConfig{SrcSlave: bs, DstMaster: 0, DstSlave: 0, FifoCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.OnCycle = func(cycle int64, ab *bus.Bus) {
		if ab.Master(0).QueueLen() < 2 {
			ab.Inject(0, 1, bs)
		}
	}
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	if br.Dropped() == 0 {
		t.Fatal("overloaded bridge dropped nothing")
	}
	if br.Queued() > 2 {
		t.Fatalf("fifo cap violated: %d", br.Queued())
	}
}

// TestBridgeStatsSnapshot is the regression test for Bridge.Stats():
// before it existed the drop counter and the raw end-to-end sums were
// unreachable, so replica aggregation and observability recording could
// not see bridge traffic. The snapshot must agree with the individual
// accessors on both the forwarding and the overflow-drop path.
func TestBridgeStatsSnapshot(t *testing.T) {
	sys := NewSystem()
	a := bus.New(bus.Config{MaxBurst: 16})
	a.AddMaster("cpu", nil, bus.MasterOpts{})
	bs := a.AddSlave("bridge", bus.SlaveOpts{})
	pa, _ := arb.NewPriority([]uint64{1})
	a.SetArbiter(pa)

	b := bus.New(bus.Config{MaxBurst: 16})
	b.AddMaster("bridge", nil, bus.MasterOpts{})
	b.AddSlave("mem", bus.SlaveOpts{WaitStates: 63})
	pb, _ := arb.NewPriority([]uint64{1})
	b.SetArbiter(pb)

	ai := sys.AddBus("A", a)
	bi := sys.AddBus("B", b)
	br, err := sys.Connect(ai, bi, BridgeConfig{SrcSlave: bs, DstMaster: 0, DstSlave: 0, FifoCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.OnCycle = func(cycle int64, ab *bus.Bus) {
		if ab.Master(0).QueueLen() < 2 {
			ab.Inject(0, 1, bs)
		}
	}
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	st := br.Stats()
	if st.Forwarded != br.Forwarded() {
		t.Errorf("snapshot forwarded %d, accessor %d", st.Forwarded, br.Forwarded())
	}
	if st.Dropped != br.Dropped() || st.Dropped == 0 {
		t.Errorf("snapshot dropped %d, accessor %d (want nonzero)", st.Dropped, br.Dropped())
	}
	if st.Queued != br.Queued() {
		t.Errorf("snapshot queued %d, accessor %d", st.Queued, br.Queued())
	}
	if st.E2EMessages != st.Forwarded {
		t.Errorf("e2e messages %d != forwarded %d", st.E2EMessages, st.Forwarded)
	}
	if st.E2EMessages > 0 {
		mean := float64(st.E2ELatencySum) / float64(st.E2EMessages)
		if mean != br.AvgEndToEndLatency() {
			t.Errorf("raw sums give mean %v, accessor %v", mean, br.AvgEndToEndLatency())
		}
		if mean < 1 {
			t.Errorf("end-to-end latency %v below one cycle", mean)
		}
	} else {
		t.Error("no end-to-end messages measured")
	}
}

func TestLockStepCycleCount(t *testing.T) {
	sys, _, a, b := buildPair(t, false)
	if err := sys.Run(123); err != nil {
		t.Fatal(err)
	}
	if sys.Cycle() != 123 || a.Cycle() != 123 || b.Cycle() != 123 {
		t.Fatalf("cycles diverged: sys=%d a=%d b=%d", sys.Cycle(), a.Cycle(), b.Cycle())
	}
}
