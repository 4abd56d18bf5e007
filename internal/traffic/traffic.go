// Package traffic provides the parameterized on-chip communication
// traffic generators used to exercise communication architectures across
// the "communication traffic space" of the LOTTERYBUS paper (§5.1): each
// bus master is driven by a generator whose burst size and injection
// rate parameters span widely varying traffic characteristics.
//
// All generators implement bus.Generator and draw from explicitly seeded
// streams, so experiments are bit-reproducible.
package traffic

import (
	"fmt"
	"math"

	"lotterybus/internal/prng"
)

// Never is the NextArrival sentinel meaning "no further arrivals".
const Never = int64(math.MaxInt64)

// Scheduler is the optional event-driven extension of bus.Generator
// consumed by the bus fast-forward engine and the lane engine. The
// contract, assuming Tick has been called at every past arrival cycle:
//
//   - NextArrival(cycle) returns the earliest cycle >= cycle at which
//     Tick may emit a message, or Never if no arrival is forthcoming. It
//     must not advance PRNG state beyond what scheduling that arrival
//     requires, so calling it any number of times — or never — leaves the
//     emitted arrival sequence unchanged.
//   - The answer depends only on the generator's own state, which only
//     Tick advances, so an engine may cache it until it next ticks the
//     generator.
//   - Tick on a cycle before the predicted arrival emits nothing and
//     draws no PRNG, so an engine may skip those Ticks altogether; any
//     catching up (Trace dropping stale entries) happens lazily in the
//     next NextArrival or Tick.
//
// A generator that cannot predict its arrivals (e.g. one reacting to
// queue depth, like Saturating) simply does not implement Scheduler; the
// bus then falls back to the naive per-cycle loop.
type Scheduler interface {
	NextArrival(cycle int64) int64
}

// nextBernoulliArrival returns the cycle of the first arrival of a
// per-cycle Bernoulli(p) process observed from cycle from (inclusive):
// from plus a geometric number of failure cycles. The gap draw replaces
// per-cycle coin flips with one PRNG draw per arrival; the two samplings
// are identical in distribution because Bernoulli inter-arrival times
// are geometric and memoryless.
func nextBernoulliArrival(src prng.Source, p float64, dist prng.GeoDist, from int64) int64 {
	if p <= 0 {
		return Never
	}
	var gap int64
	if p < 1 {
		gap = int64(dist.Draw(src))
	}
	if gap >= Never-from {
		return Never
	}
	return from + gap
}

// SizeDist describes a message-size distribution in words.
type SizeDist interface {
	// Sample draws one message size (>= 1).
	Sample(src prng.Source) int
	// Mean returns the distribution mean in words.
	Mean() float64
	// String describes the distribution.
	String() string
}

// Fixed is a constant message size.
type Fixed int

// Sample returns the fixed size.
func (f Fixed) Sample(prng.Source) int { return int(f) }

// Mean returns the fixed size.
func (f Fixed) Mean() float64 { return float64(f) }

// String describes the distribution.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%d)", int(f)) }

// Uniform is a uniform integer size on [Lo, Hi].
type Uniform struct{ Lo, Hi int }

// Sample draws a size uniformly in [Lo, Hi].
func (u Uniform) Sample(src prng.Source) int {
	return prng.IntRange(src, u.Lo, u.Hi)
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

// String describes the distribution.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%d,%d)", u.Lo, u.Hi) }

// Geometric is a shifted geometric size: 1 + Geometric(1/MeanWords), so
// the mean is MeanWords and sizes are heavy-tailed like real DMA traffic.
type Geometric struct{ MeanWords float64 }

// Sample draws 1 + a geometric variate with the configured mean.
func (g Geometric) Sample(src prng.Source) int {
	if g.MeanWords <= 1 {
		return 1
	}
	return 1 + int(prng.Geometric(src, 1/g.MeanWords))
}

// Mean returns the configured mean.
func (g Geometric) Mean() float64 {
	if g.MeanWords < 1 {
		return 1
	}
	return g.MeanWords
}

// String describes the distribution.
func (g Geometric) String() string { return fmt.Sprintf("geometric(%.1f)", g.MeanWords) }

// Saturating keeps its master's queue topped up with fixed-size messages
// so the master always has a pending request — the "bus always kept busy"
// configuration of the paper's Examples 1 and 3.
type Saturating struct {
	Words   int
	Slave   int
	Backlog int // queue depth to maintain; default 2
}

// Tick emits messages until the queue holds Backlog entries.
func (s *Saturating) Tick(_ int64, queued int, emit func(words, slave int)) {
	backlog := s.Backlog
	if backlog <= 0 {
		backlog = 2
	}
	for ; queued < backlog; queued++ {
		emit(s.Words, s.Slave)
	}
}

// Periodic emits one Words-sized message every Period cycles, starting at
// cycle Phase — the deterministic request pattern of the paper's Fig. 5
// TDMA alignment study.
type Periodic struct {
	Period int64
	Phase  int64
	Words  int
	Slave  int
}

// Tick emits on the configured beat.
func (p *Periodic) Tick(cycle int64, _ int, emit func(words, slave int)) {
	if p.Period <= 0 || cycle < p.Phase {
		return
	}
	if (cycle-p.Phase)%p.Period == 0 {
		emit(p.Words, p.Slave)
	}
}

// NextArrival returns the next beat at or after cycle.
func (p *Periodic) NextArrival(cycle int64) int64 {
	if p.Period <= 0 {
		return Never
	}
	if cycle <= p.Phase {
		return p.Phase
	}
	k := (cycle - p.Phase + p.Period - 1) / p.Period
	return p.Phase + k*p.Period
}

// Bernoulli emits messages as a Bernoulli arrival process: each cycle a
// message arrives with probability Rate/Size.Mean(), giving an offered
// load of Rate words per cycle on average.
//
// Arrivals are sampled event to event — the generator draws the
// geometric gap to the next arrival instead of flipping a per-cycle
// coin. The processes are identical in distribution; the event form
// makes Tick a no-op between arrivals, costs one PRNG draw per message
// instead of one per cycle, and implements Scheduler so the bus
// fast-forward engine and the naive loop consume the same stream.
type Bernoulli struct {
	rate  float64      // message arrival probability per cycle
	gap   prng.GeoDist // inter-arrival distribution; zero when rate is 0 or 1
	size  SizeDist
	slave int
	src   prng.Source

	started bool
	next    int64 // cycle of the next arrival; Never when rate == 0
}

// NewBernoulli builds a Bernoulli generator offering load words of
// traffic per cycle (0 <= load) with the given size distribution.
func NewBernoulli(load float64, size SizeDist, slave int, seed uint64) (*Bernoulli, error) {
	if size == nil || size.Mean() < 1 {
		return nil, fmt.Errorf("traffic: invalid size distribution")
	}
	if load < 0 {
		return nil, fmt.Errorf("traffic: negative load %v", load)
	}
	rate := load / size.Mean()
	if rate > 1 {
		return nil, fmt.Errorf("traffic: load %v needs more than one message per cycle (mean size %v)",
			load, size.Mean())
	}
	b := &Bernoulli{rate: rate, size: size, slave: slave, src: prng.NewXorShift64Star(seed)}
	if rate > 0 && rate < 1 {
		b.gap = prng.NewGeoDist(rate)
	}
	return b, nil
}

// ensure schedules the first arrival relative to the cycle of the first
// observation, so streams are independent of construction time.
func (b *Bernoulli) ensure(cycle int64) {
	if b.started {
		return
	}
	b.started = true
	b.next = nextBernoulliArrival(b.src, b.rate, b.gap, cycle)
}

// Tick emits a message on its scheduled arrival cycles and is a no-op
// (no PRNG draws) in between.
func (b *Bernoulli) Tick(cycle int64, _ int, emit func(words, slave int)) {
	b.ensure(cycle)
	if cycle != b.next {
		return
	}
	emit(b.size.Sample(b.src), b.slave)
	b.next = nextBernoulliArrival(b.src, b.rate, b.gap, cycle+1)
}

// NextArrival implements Scheduler.
func (b *Bernoulli) NextArrival(cycle int64) int64 {
	b.ensure(cycle)
	return b.next
}

// OnOff is a two-state Markov-modulated generator: in the ON state it
// emits like a Bernoulli generator with the burst-local load; in OFF it
// is silent. Mean dwell times are geometric. This produces the strongly
// bursty, phase-drifting traffic that defeats TDMA slot alignment.
//
// Like Bernoulli, the chain is sampled event to event: dwell times are
// drawn as whole geometric window lengths and arrivals within an ON
// window as geometric gaps (memorylessness makes this identical in
// distribution to stepping the chain cycle by cycle). Tick is a no-op
// between arrivals and the generator implements Scheduler, so the naive
// loop and the fast-forward engine consume one identical PRNG stream.
type OnOff struct {
	pOnOff   float64      // P(ON -> OFF) per cycle
	pOffOn   float64      // P(OFF -> ON) per cycle
	rateOn   float64      // message probability per ON cycle
	dwellOn  prng.GeoDist // ON sojourn minus one
	dwellOff prng.GeoDist // OFF sojourn minus one
	gap      prng.GeoDist // intra-window inter-arrival; zero when rateOn is 0 or 1
	size     SizeDist
	slave    int
	src      prng.Source

	started bool
	winEnd  int64 // first cycle after the current ON window
	next    int64 // cycle of the next arrival; Never when rateOn == 0
}

// OnOffConfig parameterizes NewOnOff.
type OnOffConfig struct {
	// MeanOn and MeanOff are the mean dwell cycles in each state.
	MeanOn, MeanOff float64
	// LoadOn is the offered load (words/cycle) while ON. The long-run
	// offered load is LoadOn * MeanOn / (MeanOn + MeanOff).
	LoadOn float64
	// Size is the message size distribution.
	Size SizeDist
	// Slave is the destination slave index.
	Slave int
	// Seed seeds the generator's private stream.
	Seed uint64
}

// NewOnOff builds an ON/OFF Markov-modulated generator.
func NewOnOff(cfg OnOffConfig) (*OnOff, error) {
	if cfg.MeanOn < 1 || cfg.MeanOff < 0 {
		return nil, fmt.Errorf("traffic: invalid dwell times on=%v off=%v", cfg.MeanOn, cfg.MeanOff)
	}
	if cfg.Size == nil || cfg.Size.Mean() < 1 {
		return nil, fmt.Errorf("traffic: invalid size distribution")
	}
	rate := cfg.LoadOn / cfg.Size.Mean()
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: ON load %v infeasible for mean size %v", cfg.LoadOn, cfg.Size.Mean())
	}
	pOffOn := 1.0
	if cfg.MeanOff > 0 {
		pOffOn = 1 / cfg.MeanOff
	}
	o := &OnOff{
		pOnOff:   1 / cfg.MeanOn,
		pOffOn:   pOffOn,
		rateOn:   rate,
		dwellOn:  prng.NewGeoDist(1 / cfg.MeanOn),
		dwellOff: prng.NewGeoDist(pOffOn),
		size:     cfg.Size,
		slave:    cfg.Slave,
		src:      prng.NewXorShift64Star(cfg.Seed),
	}
	if rate > 0 && rate < 1 {
		o.gap = prng.NewGeoDist(rate)
	}
	return o, nil
}

// dwell draws one state dwell time: 1 + Geometric(p) cycles, mean 1/p —
// the sojourn distribution of the per-cycle two-state Markov chain.
func (o *OnOff) dwell(d prng.GeoDist) int64 {
	return 1 + int64(d.Draw(o.src))
}

// ensure initializes the window chain at the cycle of the first
// observation. The initial state is drawn weighted by dwell times so
// ensembles of generators are phase-decorrelated.
func (o *OnOff) ensure(cycle int64) {
	if o.started {
		return
	}
	o.started = true
	if prng.Bernoulli(o.src, o.pOffOn/(o.pOffOn+o.pOnOff)) {
		o.winEnd = cycle + o.dwell(o.dwellOn)
		o.schedule(cycle)
	} else {
		start := cycle + o.dwell(o.dwellOff)
		o.winEnd = start + o.dwell(o.dwellOn)
		o.schedule(start)
	}
}

// schedule finds the first arrival at or after pos. Within the current
// ON window the gap to the next arrival is geometric; a gap overrunning
// the window is discarded and redrawn in the next ON window, which by
// memorylessness leaves the arrival law unchanged.
func (o *OnOff) schedule(pos int64) {
	if o.rateOn <= 0 {
		o.next = Never
		return
	}
	for {
		if pos < o.winEnd {
			var gap int64
			if o.rateOn < 1 {
				gap = int64(o.gap.Draw(o.src))
			}
			if gap < o.winEnd-pos {
				o.next = pos + gap
				return
			}
		}
		start := o.winEnd + o.dwell(o.dwellOff)
		o.winEnd = start + o.dwell(o.dwellOn)
		pos = start
		if pos >= Never>>1 {
			// Pathological dwell draws (possible only with extreme
			// parameters) saturate rather than overflow the cycle count.
			o.next = Never
			return
		}
	}
}

// Tick emits a message on its scheduled arrival cycles and is a no-op
// (no PRNG draws) in between.
func (o *OnOff) Tick(cycle int64, _ int, emit func(words, slave int)) {
	o.ensure(cycle)
	if cycle != o.next {
		return
	}
	emit(o.size.Sample(o.src), o.slave)
	o.schedule(cycle + 1)
}

// NextArrival implements Scheduler.
func (o *OnOff) NextArrival(cycle int64) int64 {
	o.ensure(cycle)
	return o.next
}

// Arrival is one recorded message arrival.
type Arrival struct {
	Cycle int64
	Words int
	Slave int
}

// Trace is a deterministic arrival sequence, usable for replay.
type Trace struct {
	Arrivals []Arrival // must be sorted by Cycle (stable)
	next     int
}

// Replay returns a generator that replays the trace from the beginning.
func (t *Trace) Replay() *Trace {
	return &Trace{Arrivals: t.Arrivals}
}

// Tick emits every arrival recorded for this cycle.
func (t *Trace) Tick(cycle int64, _ int, emit func(words, slave int)) {
	for t.next < len(t.Arrivals) && t.Arrivals[t.next].Cycle <= cycle {
		a := t.Arrivals[t.next]
		if a.Cycle == cycle {
			emit(a.Words, a.Slave)
		}
		t.next++
	}
}

// NextArrival returns the cycle of the first unconsumed recorded arrival
// at or after cycle. Stale entries (before cycle) are dropped, exactly
// as Tick would drop them without emitting.
func (t *Trace) NextArrival(cycle int64) int64 {
	for t.next < len(t.Arrivals) && t.Arrivals[t.next].Cycle < cycle {
		t.next++
	}
	if t.next >= len(t.Arrivals) {
		return Never
	}
	return t.Arrivals[t.next].Cycle
}

// Recorder wraps a generator, recording everything it emits. Use it to
// capture a stochastic workload once and replay it against several
// communication architectures — the paper's methodology for comparing
// architectures under identical traffic.
type Recorder struct {
	Inner bus2Generator
	Trace Trace
}

// bus2Generator mirrors bus.Generator to avoid an import cycle; any
// bus.Generator satisfies it.
type bus2Generator interface {
	Tick(cycle int64, queued int, emit func(words, slave int))
}

// Every predictable generator opts into the fast-forward contract.
// Saturating deliberately does not: its emissions depend on the live
// queue depth, so it needs per-cycle Ticks (and a saturated bus has no
// dead cycles to skip anyway).
var (
	_ Scheduler = (*Bernoulli)(nil)
	_ Scheduler = (*OnOff)(nil)
	_ Scheduler = (*Periodic)(nil)
	_ Scheduler = (*Trace)(nil)
	_ Scheduler = (*Recorder)(nil)
)

// NewRecorder wraps gen.
func NewRecorder(gen bus2Generator) *Recorder {
	return &Recorder{Inner: gen}
}

// Tick forwards to the wrapped generator, recording emissions.
func (r *Recorder) Tick(cycle int64, queued int, emit func(words, slave int)) {
	r.Inner.Tick(cycle, queued, func(words, slave int) {
		r.Trace.Arrivals = append(r.Trace.Arrivals, Arrival{Cycle: cycle, Words: words, Slave: slave})
		emit(words, slave)
	})
}

// NextArrival forwards to the wrapped generator when it implements
// Scheduler; otherwise it conservatively returns cycle, which makes the
// bus call Tick every executed cycle (naive behaviour, always correct).
func (r *Recorder) NextArrival(cycle int64) int64 {
	if s, ok := r.Inner.(Scheduler); ok {
		return s.NextArrival(cycle)
	}
	return cycle
}
