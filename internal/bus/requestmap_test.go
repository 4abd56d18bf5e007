package bus_test

// The fast path keeps its request map incrementally (a queue-non-empty
// bitset and a split-outstanding bitset) instead of scanning every
// master each cycle. TestRequestMapMatchesScan holds that map to the
// naive loop's masterPending scan on every executed fast-path cycle,
// across the situations that could leave it stale: Inject between Runs,
// Runs cut into random chunks, naive Runs (a per-cycle hook, or
// DisableFastForward) interleaved with fast ones, and a faulted Run
// whose retry backoff is still pending when a disarmed Run starts. Each
// system is also run beside an all-naive twin fed the same injections,
// and the two must end bit-identical.

import (
	"fmt"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

// stripeFaults answers an error response on a fixed stripe of
// (cycle, master) pairs while armed — deterministic, so a twin with its
// own instance sees the same faults.
type stripeFaults struct{ armed bool }

func (f *stripeFaults) Armed() bool { return f.armed }

func (f *stripeFaults) ErrorResponse(cycle int64, master, _ int) bool {
	return (cycle*31+int64(master)*17)%5 == 0
}

func (f *stripeFaults) WordError(int64, int, int) bool { return false }

func (f *stripeFaults) SplitHang(int64, int, int) bool { return false }

func (f *stripeFaults) Babble(int64, int) (int, int, bool) { return 0, 0, false }

// mapGen builds master i's generator for a request-map system: a mix of
// Bernoulli, on/off, periodic and trace traffic, and some masters fed
// only by Inject.
func mapGen(t *testing.T, seed uint64, i int) bus.Generator {
	t.Helper()
	rng := prng.NewSplitMix64(prng.Derive(seed, fmt.Sprintf("gen%d", i)))
	slave := int(rng.Uint64() % 3)
	var (
		gen bus.Generator
		err error
	)
	switch rng.Uint64() % 6 {
	case 0:
		return nil
	case 1:
		gen, err = traffic.NewOnOff(traffic.OnOffConfig{
			MeanOn: 40, MeanOff: 300, LoadOn: 0.3,
			Size: traffic.Uniform{Lo: 1, Hi: 6}, Slave: slave, Seed: rng.Uint64(),
		})
	case 2:
		gen = &traffic.Periodic{Period: 50 + int64(rng.Uint64()%200), Phase: int64(rng.Uint64() % 50), Words: 1 + int(rng.Uint64()%4), Slave: slave}
	case 3:
		var arr []traffic.Arrival
		for c := int64(rng.Uint64() % 40); c < 6000; c += 1 + int64(rng.Uint64()%400) {
			arr = append(arr, traffic.Arrival{Cycle: c, Words: 1 + int(rng.Uint64()%5), Slave: slave})
		}
		gen = &traffic.Trace{Arrivals: arr}
	default:
		load := 0.002 + float64(rng.Uint64()%40)/1000
		gen, err = traffic.NewBernoulli(load, traffic.Geometric{MeanWords: 3}, slave, rng.Uint64())
	}
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// mapBus builds an n-master system with a plain, a wait-state and a
// split slave under one of three arbiters, with or without an
// arbitration latency (which lets a split's address beat fall inside a
// batched burst).
func mapBus(t *testing.T, n int, seed uint64, disableFF bool) (*bus.Bus, *stripeFaults) {
	t.Helper()
	b := bus.New(bus.Config{MaxBurst: 8, ArbLatency: int(seed>>8) % 2, RetryLimit: 3, RetryBackoff: 40})
	b.DisableFastForward = disableFF
	tickets := make([]uint64, n)
	for i := range tickets {
		tickets[i] = uint64(i%5) + 1
		b.AddMaster(fmt.Sprintf("m%d", i), mapGen(t, seed, i), bus.MasterOpts{Tickets: tickets[i], QueueCap: 6})
	}
	b.AddSlave("mem", bus.SlaveOpts{})
	b.AddSlave("slow", bus.SlaveOpts{WaitStates: 2})
	b.AddSlave("split", bus.SlaveOpts{SplitLatency: 12})
	src := prng.NewXorShift64Star(prng.Derive(seed, "arb"))
	var (
		a   bus.Arbiter
		err error
	)
	switch seed % 3 {
	case 0:
		var mgr *core.StaticLottery
		if mgr, err = core.NewStaticLottery(core.StaticConfig{Tickets: tickets, Source: src}); err == nil {
			a = arb.NewStaticLottery(mgr)
		}
	case 1:
		var mgr *core.DynamicLottery
		if mgr, err = core.NewDynamicLottery(core.DynamicConfig{Masters: n, Source: src}); err == nil {
			a = arb.NewDynamicLottery(mgr)
		}
	default:
		a, err = arb.NewRoundRobin(n)
	}
	if err != nil {
		t.Fatal(err)
	}
	b.SetArbiter(a)
	fm := &stripeFaults{}
	b.SetFaultModel(fm)
	return b, fm
}

func TestRequestMapMatchesScan(t *testing.T) {
	var checked, mismatched int
	bus.SetFastCycleCheck(func(b *bus.Bus) {
		checked++
		if inc, scan := b.IncrementalRequestMap(), b.ScannedRequestMap(); inc != scan && mismatched < 5 {
			mismatched++
			t.Errorf("cycle %d: incremental request map %x, scan %x", b.Cycle(), inc, scan)
		}
	})
	defer bus.SetFastCycleCheck(nil)

	backoffCarried := 0
	for _, n := range []int{1, 2, 5, 12, 13, 31, 63, 64, 65, 96, 130, 256} {
		for rep := 0; rep < 3; rep++ {
			seed := prng.Derive(0x4d4150, fmt.Sprintf("n%d/r%d", n, rep))
			subject, subjectFaults := mapBus(t, n, seed, false)
			twin, twinFaults := mapBus(t, n, seed, true)
			rng := prng.NewSplitMix64(seed)
			horizon := int64(5000)
			if n > 64 {
				horizon = 2500
			}
			for subject.Cycle() < horizon {
				for k := rng.Uint64() % 4; k > 0; k-- {
					m, words, slave := int(rng.Uint64()%uint64(n)), 1+int(rng.Uint64()%6), int(rng.Uint64()%3)
					if a, b := subject.Inject(m, words, slave), twin.Inject(m, words, slave); a != b {
						t.Fatalf("n=%d: Inject accepted %v on the subject, %v on the twin", n, a, b)
					}
				}
				chunk := 1 + int64(rng.Uint64()%300)
				switch rng.Uint64() % 8 {
				case 0: // a per-cycle observer forces the naive loop
					subject.OnCycle = func(int64, *bus.Bus) {}
				case 1:
					subject.DisableFastForward = true
				case 2: // a faulted Run; its backoffs may outlive it
					subjectFaults.armed, twinFaults.armed = true, true
				}
				if subject.RetryBackoffPending() && !subjectFaults.armed && subject.OnCycle == nil && !subject.DisableFastForward {
					backoffCarried++
				}
				if err := subject.Run(chunk); err != nil {
					t.Fatal(err)
				}
				if err := twin.Run(chunk); err != nil {
					t.Fatal(err)
				}
				subject.OnCycle, subject.DisableFastForward = nil, false
				subjectFaults.armed, twinFaults.armed = false, false
			}
			if s, w := subject.Collector().Fingerprint(), twin.Collector().Fingerprint(); s != w {
				t.Errorf("n=%d rep %d: fingerprint %#x, all-naive twin %#x", n, rep, s, w)
			}
			for m := 0; m < n; m++ {
				sm, wm := subject.Master(m), twin.Master(m)
				if sm.QueueLen() != wm.QueueLen() || sm.Outstanding() != wm.Outstanding() || sm.Dropped() != wm.Dropped() {
					t.Errorf("n=%d rep %d master %d: queue %d/%d outstanding %v/%v dropped %d/%d (subject/twin)",
						n, rep, m, sm.QueueLen(), wm.QueueLen(), sm.Outstanding(), wm.Outstanding(), sm.Dropped(), wm.Dropped())
				}
			}
			if subject.FastForwarded() == 0 {
				t.Errorf("n=%d rep %d: the fast path never ran", n, rep)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fast-path cycle was checked")
	}
	if backoffCarried == 0 {
		t.Error("no retry backoff outlived its faulted Run; the case is vacuous")
	}
	t.Logf("%d fast-path cycles checked, %d fast Runs started with a backoff pending", checked, backoffCarried)
}
