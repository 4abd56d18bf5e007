package traffic

import (
	"testing"
)

// schedGen is a generator that also implements Scheduler — the shape
// the bus fast-forward engine consumes.
type schedGen interface {
	Tick(cycle int64, queued int, emit func(words, slave int))
	Scheduler
}

// collectEvents drives a Scheduler generator the way the fast-forward
// engine does: jump from NextArrival to NextArrival and Tick only at the
// arrival cycles, never in the gaps.
func collectEvents(gen schedGen, n int64) []Arrival {
	var out []Arrival
	for c := int64(0); c < n; {
		na := gen.NextArrival(c)
		if na >= n {
			break
		}
		gen.Tick(na, 0, func(words, slave int) {
			out = append(out, Arrival{Cycle: na, Words: words, Slave: slave})
		})
		c = na + 1
	}
	return out
}

// schedCases builds identically-seeded generator pairs for every
// Scheduler implementation; the pair members must emit identical
// arrival sequences whether ticked per cycle or driven event to event.
func schedCases(t *testing.T) map[string][2]schedGen {
	t.Helper()
	bern := func() schedGen {
		g, err := NewBernoulli(0.1, Geometric{MeanWords: 8}, 1, 17)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	onoff := func() schedGen {
		g, err := NewOnOff(OnOffConfig{
			MeanOn: 60, MeanOff: 200, LoadOn: 0.7,
			Size: Uniform{Lo: 1, Hi: 20}, Slave: 1, Seed: 23,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	periodic := func() schedGen {
		return &Periodic{Period: 37, Phase: 11, Words: 4, Slave: 1}
	}
	tr := func() schedGen {
		return &Trace{Arrivals: []Arrival{
			{Cycle: 3, Words: 2}, {Cycle: 3, Words: 5}, {Cycle: 4, Words: 1},
			{Cycle: 100, Words: 9}, {Cycle: 5000, Words: 1},
		}}
	}
	rec := func() schedGen {
		g, err := NewBernoulli(0.05, Fixed(16), 0, 31)
		if err != nil {
			t.Fatal(err)
		}
		return NewRecorder(g)
	}
	return map[string][2]schedGen{
		"bernoulli": {bern(), bern()},
		"onoff":     {onoff(), onoff()},
		"periodic":  {periodic(), periodic()},
		"trace":     {tr(), tr()},
		"recorder":  {rec(), rec()},
	}
}

// TestSchedulerMatchesTicking proves the Scheduler contract: driving a
// generator event to event (NextArrival, then Tick at the arrival) yields
// exactly the arrival sequence of per-cycle ticking an identically
// seeded twin. This is the generator half of the bus fast-forward
// engine's bit-equivalence guarantee.
func TestSchedulerMatchesTicking(t *testing.T) {
	const cycles = 50000
	for name, pair := range schedCases(t) {
		t.Run(name, func(t *testing.T) {
			naive := collect(pair[0], cycles)
			event := collectEvents(pair[1], cycles)
			if len(naive) == 0 {
				t.Fatal("no arrivals; case exercises nothing")
			}
			if len(naive) != len(event) {
				t.Fatalf("arrival count: ticked %d, event-driven %d", len(naive), len(event))
			}
			for i := range naive {
				if naive[i] != event[i] {
					t.Fatalf("arrival %d: ticked %+v, event-driven %+v", i, naive[i], event[i])
				}
			}
		})
	}
}

// TestNextArrivalIsIdempotent proves NextArrival draws no PRNG beyond
// scheduling: repeated calls return the same cycle and do not perturb
// the subsequent arrival stream.
func TestNextArrivalIsIdempotent(t *testing.T) {
	const cycles = 20000
	for name, pair := range schedCases(t) {
		t.Run(name, func(t *testing.T) {
			hammered, clean := pair[0], pair[1]
			var got, want []Arrival
			for c := int64(0); c < cycles; c++ {
				na := hammered.NextArrival(c)
				for k := 0; k < 3; k++ {
					if again := hammered.NextArrival(c); again != na {
						t.Fatalf("NextArrival(%d) unstable: %d then %d", c, na, again)
					}
				}
				if na < c {
					t.Fatalf("NextArrival(%d) = %d in the past", c, na)
				}
				hammered.Tick(c, 0, func(words, slave int) {
					got = append(got, Arrival{Cycle: c, Words: words, Slave: slave})
					if na != c {
						t.Fatalf("emission at %d but NextArrival said %d", c, na)
					}
				})
				clean.Tick(c, 0, func(words, slave int) {
					want = append(want, Arrival{Cycle: c, Words: words, Slave: slave})
				})
			}
			if len(got) != len(want) {
				t.Fatalf("arrival count: hammered %d, clean %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("arrival %d: hammered %+v, clean %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestPeriodicNextArrival pins the closed-form beat arithmetic.
func TestPeriodicNextArrival(t *testing.T) {
	p := &Periodic{Period: 10, Phase: 3, Words: 1}
	for _, tc := range []struct{ at, want int64 }{
		{0, 3}, {3, 3}, {4, 13}, {13, 13}, {14, 23}, {23, 23}, {24, 33},
	} {
		if got := p.NextArrival(tc.at); got != tc.want {
			t.Errorf("NextArrival(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if (&Periodic{Period: 0}).NextArrival(5) != Never {
		t.Error("zero period must never arrive")
	}
	if (&Periodic{Period: -4}).NextArrival(5) != Never {
		t.Error("negative period must never arrive")
	}
}

// TestRecorderConservativeWithoutScheduler proves a Recorder around a
// non-Scheduler generator pins NextArrival to the asking cycle, which
// forces the bus to keep per-cycle ticking (always correct).
func TestRecorderConservativeWithoutScheduler(t *testing.T) {
	r := NewRecorder(&Saturating{Words: 4})
	for _, c := range []int64{0, 1, 17, 1 << 40} {
		if got := r.NextArrival(c); got != c {
			t.Fatalf("NextArrival(%d) = %d, want %d", c, got, c)
		}
	}
}
