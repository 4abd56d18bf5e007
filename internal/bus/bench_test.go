package bus_test

// Kernel microbenchmarks: ns per simulated bus cycle and allocs/op of
// the cycle-accurate hot path, measured directly rather than through
// whole-figure reproductions (bench_test.go at the repository root).
// Run with:
//
//	go test -bench=. -benchmem ./internal/bus
//
// Each iteration of the Tick benchmarks advances the saturated
// four-master system by one bus cycle, so ns/op is ns per simulated
// cycle and allocs/op is the steady-state allocation rate of the
// kernel (target: zero).

import (
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

// saturatedBus builds the canonical four-master contended system.
func saturatedBus(b *testing.B, a bus.Arbiter) *bus.Bus {
	b.Helper()
	bb := bus.New(bus.Config{MaxBurst: 16})
	for i := 0; i < 4; i++ {
		bb.AddMaster("m", &traffic.Saturating{Words: 16},
			bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	bb.AddSlave("mem", bus.SlaveOpts{})
	bb.SetArbiter(a)
	return bb
}

// BenchmarkTickStaticLottery measures one bus cycle under the static
// lottery manager on a saturated four-master system.
func BenchmarkTickStaticLottery(b *testing.B) {
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{1, 2, 3, 4},
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	bb := saturatedBus(b, arb.NewStaticLottery(mgr))
	// Warm up past the queue-fill transient so steady-state allocations
	// are what the benchmark sees.
	if err := bb.Run(4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := bb.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTickDynamicLottery measures one bus cycle under the dynamic
// lottery manager, whose per-draw partial sums are formed on the fly.
func BenchmarkTickDynamicLottery(b *testing.B) {
	mgr, err := core.NewDynamicLottery(core.DynamicConfig{
		Masters: 4,
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	bb := saturatedBus(b, arb.NewDynamicLottery(mgr))
	if err := bb.Run(4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := bb.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTickBernoulli measures one bus cycle with live stochastic
// traffic generation in the loop (the workload of the bandwidth-sharing
// figures), capturing the generator-callback path as well.
func BenchmarkTickBernoulli(b *testing.B) {
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{1, 2, 3, 4},
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	bb := bus.New(bus.Config{MaxBurst: 16})
	for i := 0; i < 4; i++ {
		gen, err := traffic.NewBernoulli(0.72, traffic.Fixed(16), 0, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		bb.AddMaster("m", gen, bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	bb.AddSlave("mem", bus.SlaveOpts{})
	bb.SetArbiter(arb.NewStaticLottery(mgr))
	if err := bb.Run(4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := bb.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// lightBus builds a four-master system at the given offered load per
// master (words/cycle, Bernoulli arrivals of 16-word messages) under a
// static lottery, with the fast-forward engine on or off.
func lightBus(b *testing.B, load float64, disableFF bool) *bus.Bus {
	b.Helper()
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{1, 2, 3, 4},
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	bb := bus.New(bus.Config{MaxBurst: 16})
	bb.DisableFastForward = disableFF
	for i := 0; i < 4; i++ {
		var gen bus.Generator
		if load > 0 {
			g, err := traffic.NewBernoulli(load, traffic.Fixed(16), 0, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			gen = g
		}
		bb.AddMaster("m", gen, bus.MasterOpts{Tickets: uint64(i + 1)})
	}
	bb.AddSlave("mem", bus.SlaveOpts{})
	bb.SetArbiter(arb.NewStaticLottery(mgr))
	return bb
}

// benchRun times bb.Run(b.N): ns/op is ns per simulated bus cycle.
func benchRun(b *testing.B, bb *bus.Bus) {
	b.Helper()
	if err := bb.Run(4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := bb.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIdleBusFast measures a bus with no traffic at all under the
// fast-forward engine: the whole horizon collapses to one skip, so this
// is the engine's best case (and the dominant regime of low-load
// sweeps' dead cycles).
func BenchmarkIdleBusFast(b *testing.B) {
	benchRun(b, lightBus(b, 0, false))
}

// BenchmarkIdleBusNaive is the same idle system on the per-cycle loop,
// the before-side baseline for the fast path.
func BenchmarkIdleBusNaive(b *testing.B) {
	benchRun(b, lightBus(b, 0, true))
}

// BenchmarkLowLoadFast measures a 10%-utilization system (4 masters at
// 0.025 words/cycle each) under the fast-forward engine — the paper's
// sparse traffic classes, where most cycles are dead.
func BenchmarkLowLoadFast(b *testing.B) {
	benchRun(b, lightBus(b, 0.025, false))
}

// BenchmarkLowLoadNaive is the same 10%-utilization system on the
// per-cycle loop.
func BenchmarkLowLoadNaive(b *testing.B) {
	benchRun(b, lightBus(b, 0.025, true))
}

// BenchmarkDrawOnlyStatic measures the static lottery draw alone: the
// LUT row fetch, the RNG draw and the comparator scan.
func BenchmarkDrawOnlyStatic(b *testing.B) {
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: []uint64{1, 2, 3, 4},
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mgr.Draw(0b1111) == core.NoWinner {
			b.Fatal("no winner on a full request map")
		}
	}
}

// BenchmarkDrawOnlyDynamic measures the dynamic lottery draw alone: the
// masked adder tree plus the modulo/exact reduction.
func BenchmarkDrawOnlyDynamic(b *testing.B) {
	mgr, err := core.NewDynamicLottery(core.DynamicConfig{
		Masters: 4,
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	tickets := []uint64{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mgr.Draw(0b1111, tickets) == core.NoWinner {
			b.Fatal("no winner on a full request map")
		}
	}
}

// widePortBus builds the cmp64 crossbar's directory port: 64 masters
// sending 2-word Bernoulli messages at 0.016 words/cycle each (1.02
// words/cycle offered to the port) under a static lottery, master i
// holding i%4+1 tickets — beyond the lottery lookup table, and on the
// fast path a system whose cost was once dominated by per-master scans.
func widePortBus(b *testing.B, disableFF bool) *bus.Bus {
	b.Helper()
	const masters = 64
	tickets := make([]uint64, masters)
	bb := bus.New(bus.Config{MaxBurst: 16})
	bb.DisableFastForward = disableFF
	for i := range tickets {
		tickets[i] = uint64(i%4) + 1
		gen, err := traffic.NewBernoulli(0.016, traffic.Fixed(2), 0, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		bb.AddMaster("core", gen, bus.MasterOpts{Tickets: tickets[i]})
	}
	bb.AddSlave("dir", bus.SlaveOpts{})
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: tickets,
		Source:  prng.NewXorShift64Star(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	bb.SetArbiter(arb.NewStaticLottery(mgr))
	return bb
}

// BenchmarkWidePortFast measures the 64-master directory port on the
// fast-forward engine, whose per-cycle cost follows the cycle's events
// (due generators, requesters), not the bus width.
func BenchmarkWidePortFast(b *testing.B) {
	benchRun(b, widePortBus(b, false))
}

// BenchmarkWidePortNaive is the same port on the per-cycle loop, which
// ticks and scans all 64 masters every cycle.
func BenchmarkWidePortNaive(b *testing.B) {
	benchRun(b, widePortBus(b, true))
}
