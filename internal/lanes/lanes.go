// Package lanes is the lane-batched replica engine: it steps N
// independent replicas ("lanes") of one bus configuration — the exact
// shape of lotterysim's -replicate flag — through a single fused Run
// loop. Per-lane mutable state (queue rings, burst registers, split
// slots, arrival caches) is laid out contiguously in structure-of-arrays
// form, so stepping lanes touches adjacent memory instead of chasing N
// scattered *bus.Bus object graphs, and the per-cycle dispatch overhead
// (hook checks, fault checks, collector calls) is paid once per Run
// instead of once per cycle.
//
// Every lane is bit-identical to a scalar bus.Bus built from the same
// configuration with that lane's generator and arbiter instances: the
// loop below replays bus.Run's naive per-cycle phases exactly (arrival,
// arbitration, transfer), and the lane-vs-scalar equivalence suite
// proves it over the full check-package grid by comparing
// stats.Collector fingerprints. Four transformations make it faster
// without perturbing a single observable bit:
//
//   - generators implementing the Scheduler contract are Ticked only on
//     their arrival cycles (Tick is a documented no-op, with no PRNG
//     draws, off them), and traffic.Saturating — stateless by design —
//     is inlined as a queue top-up, eliminating the interface call. The
//     top-up can only emit after one of its own queue's pops, so even a
//     saturated lane becomes event-predictable, which the scalar naive
//     loop (forced by Saturating's missing Scheduler) can never exploit;
//   - burst interiors and dead gaps are advanced in bulk per lane,
//     replaying exactly what the scalar fast-forward engine does
//     (fastforward.go proved the transformation fingerprint-safe);
//     a lane leaps only to its own next arrival, so every cycle on which
//     an arbiter is consulted, a message arrives, or a beat moves is
//     still executed individually with exact cycle stamps;
//   - collector counters with no order sensitivity (word counts, cycle
//     counts) accumulate in flat per-lane arrays and flush in bulk via
//     WordsTransferred/AdvanceCycles at the end of Run; order-sensitive
//     events (MessageStarted/Completed, ControlCycle, Granted, drops)
//     still fire at their exact cycles with exact arguments;
//   - lanes are mutually independent, so Run shards them across
//     runner.Workers goroutines in contiguous blocks; results are
//     identical for any worker count.
//
// The engine deliberately supports only the replicate shape: no
// per-cycle hooks, no fault injection, no preemption, no split-
// transaction watchdog or starvation detector (those force the scalar
// per-cycle loop). Configurations requiring them are rejected with a
// clear error instead of silently degrading.
package lanes

import (
	"fmt"
	"math"

	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/runner"
	"lotterybus/internal/stats"
	"lotterybus/internal/traffic"
)

// never is the no-arrival sentinel (matches traffic.Never).
const never = int64(math.MaxInt64)

// message mirrors the scalar engine's queued transaction.
type message struct {
	arrival   int64
	words     int
	remaining int
	slave     int
	started   bool
}

// msgQueue is the power-of-two ring buffer of the scalar engine,
// replicated here so lane queues embed by value in one contiguous slice.
type msgQueue struct {
	buf  []message
	head int
	n    int
}

func (q *msgQueue) front() *message { return &q.buf[q.head] }

func (q *msgQueue) push(m message) {
	if q.n == len(q.buf) {
		grown := make([]message, max(8, 2*len(q.buf)))
		mask := len(q.buf) - 1
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&mask]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

func (q *msgQueue) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *msgQueue) words() int64 {
	var w int64
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		w += int64(q.buf[(q.head+i)&mask].remaining)
	}
	return w
}

// burst mirrors the scalar engine's in-progress transfer register.
type burst struct {
	master          int
	words           int
	done            int
	control         bool
	fromOutstanding bool
	waitLeft        int
}

// masterSpec is the shared (lane-invariant) description of one master.
type masterSpec struct {
	name     string
	queueCap int
	tickets  uint64
	gen      func(lane int) (bus.Generator, error)
}

// slaveSpec is the shared description of one slave.
type slaveSpec struct {
	name         string
	waitStates   int
	splitLatency int
}

// Engine steps N lanes of one configuration. Construct with New,
// populate with AddMaster/AddSlave/SetArbiter, then Run. Topology is
// frozen at the first Run (or Collector) call.
type Engine struct {
	cfg     bus.Config
	n       int
	masters []masterSpec
	slaves  []slaveSpec
	arbFac  func(lane int) (bus.Arbiter, error)

	// Parallel is the worker count for sharding lanes across goroutines;
	// zero consults LOTTERYBUS_PARALLEL then GOMAXPROCS (runner.Workers).
	// Results are bit-identical for any value.
	Parallel int

	built   bool
	cycle   int64
	arbName string

	// Per-lane state (index: lane).
	arbs    []bus.Arbiter
	cols    []*stats.Collector
	burstOn []bool
	bursts  []burst
	views   []laneView
	now     []int64 // cycle being executed, read by emit closures
	// satLow marks a lane whose inlined Saturating generators may emit
	// on the next executed cycle: set when one of their queues pops (or
	// stays below backlog because the queue cap is smaller), cleared by
	// the arrival scan once every saturating queue is topped up.
	satLow []int8
	// laneNextArr caches the earliest nextArr over the lane's
	// non-saturating generators; the arrival scan runs only when it is
	// due or satLow is set.
	laneNextArr []int64

	// Per lane×master state (index: lane*len(masters)+m).
	queues     []msgQueue
	gens       []bus.Generator
	scheds     []bus.Scheduler
	emits      []func(words, slave int)
	nextArr    []int64 // next cycle Tick may emit; maintained via Scheduler
	satWords   []int
	satSlave   []int
	satBacklog []int // > 0 marks an inlined traffic.Saturating generator
	outOn      []bool
	outMsg     []message
	respReady  []int64
	dropped    []int64
	enqMsgs    []int64
	enqWords   []int64
	dropWords  []int64
	wordsAcc   []int64 // words transferred this Run, flushed in bulk

	// Per lane×slave word counters (index: lane*len(slaves)+s).
	slaveWords []int64
}

// New returns an empty engine stepping lanes replicas of cfg.
func New(cfg bus.Config, lanes int) *Engine {
	fillConfig(&cfg)
	return &Engine{cfg: cfg, n: lanes}
}

// fillConfig applies the scalar engine's zero-value defaults.
func fillConfig(c *bus.Config) {
	if c.MaxBurst == 0 {
		c.MaxBurst = 16
	}
	if c.DefaultQueueCap == 0 {
		c.DefaultQueueCap = 1024
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 16
	}
}

// AddMaster attaches a master interface whose lane l is driven by the
// generator gen(l); gen may be nil (or return a nil Generator) for a
// master with no traffic source. The factory is invoked once per lane so
// every lane owns an independent generator instance and PRNG stream.
func (e *Engine) AddMaster(name string, opts bus.MasterOpts, gen func(lane int) (bus.Generator, error)) {
	if e.built {
		panic("lanes: AddMaster after Run")
	}
	cap := opts.QueueCap
	if cap == 0 {
		cap = e.cfg.DefaultQueueCap
	}
	e.masters = append(e.masters, masterSpec{name: name, queueCap: cap, tickets: opts.Tickets, gen: gen})
}

// AddSlave attaches a slave interface and returns its index.
func (e *Engine) AddSlave(name string, opts bus.SlaveOpts) int {
	if e.built {
		panic("lanes: AddSlave after Run")
	}
	e.slaves = append(e.slaves, slaveSpec{name: name, waitStates: opts.WaitStates, splitLatency: opts.SplitLatency})
	return len(e.slaves) - 1
}

// SetArbiter attaches the arbitration scheme; arb(l) constructs lane
// l's private instance (arbiter state — rotation pointers, deficits,
// lottery PRNG — is per lane).
func (e *Engine) SetArbiter(arb func(lane int) (bus.Arbiter, error)) {
	if e.built {
		panic("lanes: SetArbiter after Run")
	}
	e.arbFac = arb
}

// Lanes returns the number of replicas.
func (e *Engine) Lanes() int { return e.n }

// NumMasters returns the number of master interfaces per lane.
func (e *Engine) NumMasters() int { return len(e.masters) }

// NumSlaves returns the number of slave interfaces per lane.
func (e *Engine) NumSlaves() int { return len(e.slaves) }

// MasterName returns master i's name.
func (e *Engine) MasterName(i int) string { return e.masters[i].name }

// SlaveName returns slave s's name.
func (e *Engine) SlaveName(s int) string { return e.slaves[s].name }

// Cycle returns the current simulation cycle (the next cycle to execute).
func (e *Engine) Cycle() int64 { return e.cycle }

// ArbiterName identifies the arbitration scheme (empty before the
// topology is built).
func (e *Engine) ArbiterName() string { return e.arbName }

// validate mirrors the scalar engine's checks and additionally rejects
// the per-cycle-hook features the fused loop cannot honor.
func (e *Engine) validate() error {
	if e.n < 1 {
		return fmt.Errorf("lanes: %d lanes", e.n)
	}
	if len(e.masters) == 0 {
		return fmt.Errorf("lanes: no masters")
	}
	if len(e.masters) > core.MaxMasters {
		return fmt.Errorf("lanes: %d masters exceeds core.MaxMasters (%d)", len(e.masters), core.MaxMasters)
	}
	if e.arbFac == nil {
		return fmt.Errorf("lanes: no arbiter attached")
	}
	if e.cfg.Preemption {
		return fmt.Errorf("lanes: preemption consults the arbiter every burst cycle; use the scalar engine")
	}
	if e.cfg.SplitTimeout > 0 {
		return fmt.Errorf("lanes: SplitTimeout arms the per-cycle watchdog; use the scalar engine")
	}
	if e.cfg.StarvationThreshold > 0 {
		return fmt.Errorf("lanes: StarvationThreshold arms the per-cycle starvation detector; use the scalar engine")
	}
	if e.cfg.MaxBurst < 0 {
		return fmt.Errorf("lanes: negative MaxBurst %d", e.cfg.MaxBurst)
	}
	if e.cfg.ArbLatency < 0 {
		return fmt.Errorf("lanes: negative ArbLatency %d", e.cfg.ArbLatency)
	}
	if e.cfg.DefaultQueueCap < 0 {
		return fmt.Errorf("lanes: negative DefaultQueueCap %d", e.cfg.DefaultQueueCap)
	}
	for i, s := range e.slaves {
		if s.waitStates < 0 {
			return fmt.Errorf("lanes: slave %d (%s) has negative WaitStates %d", i, s.name, s.waitStates)
		}
		if s.splitLatency < 0 {
			return fmt.Errorf("lanes: slave %d (%s) has negative SplitLatency %d", i, s.name, s.splitLatency)
		}
	}
	return nil
}

// build freezes the topology: instantiates per-lane arbiters, generators
// and collectors, and lays out the flat state arrays.
func (e *Engine) build() error {
	if err := e.validate(); err != nil {
		return err
	}
	nL, nM, nS := e.n, len(e.masters), len(e.slaves)
	e.arbs = make([]bus.Arbiter, nL)
	e.cols = make([]*stats.Collector, nL)
	e.burstOn = make([]bool, nL)
	e.bursts = make([]burst, nL)
	e.views = make([]laneView, nL)
	e.now = make([]int64, nL)
	e.satLow = make([]int8, nL)
	e.laneNextArr = make([]int64, nL)
	e.queues = make([]msgQueue, nL*nM)
	e.gens = make([]bus.Generator, nL*nM)
	e.scheds = make([]bus.Scheduler, nL*nM)
	e.emits = make([]func(words, slave int), nL*nM)
	e.nextArr = make([]int64, nL*nM)
	e.satWords = make([]int, nL*nM)
	e.satSlave = make([]int, nL*nM)
	e.satBacklog = make([]int, nL*nM)
	e.outOn = make([]bool, nL*nM)
	e.outMsg = make([]message, nL*nM)
	e.respReady = make([]int64, nL*nM)
	e.dropped = make([]int64, nL*nM)
	e.enqMsgs = make([]int64, nL*nM)
	e.enqWords = make([]int64, nL*nM)
	e.dropWords = make([]int64, nL*nM)
	e.wordsAcc = make([]int64, nL*nM)
	e.slaveWords = make([]int64, nL*nS)

	for lane := 0; lane < nL; lane++ {
		a, err := e.arbFac(lane)
		if err != nil {
			return fmt.Errorf("lanes: lane %d arbiter: %w", lane, err)
		}
		if a == nil {
			return fmt.Errorf("lanes: lane %d arbiter factory returned nil", lane)
		}
		e.arbs[lane] = a
		if lane == 0 {
			e.arbName = a.Name()
		}
		e.cols[lane] = stats.NewCollector(nM)
		e.views[lane] = laneView{e: e, lane: lane}
		ng := int64(never)
		for m := 0; m < nM; m++ {
			idx := lane*nM + m
			e.nextArr[idx] = never
			if e.masters[m].gen == nil {
				continue
			}
			g, err := e.masters[m].gen(lane)
			if err != nil {
				return fmt.Errorf("lanes: lane %d master %s: %w", lane, e.masters[m].name, err)
			}
			if g == nil {
				continue
			}
			if sat, ok := g.(*traffic.Saturating); ok {
				// Saturating is stateless (its Tick is a pure function of
				// the live queue depth), so the interface call is replaced
				// by an inline queue top-up in the cycle loop.
				backlog := sat.Backlog
				if backlog <= 0 {
					backlog = 2
				}
				e.satWords[idx] = sat.Words
				e.satSlave[idx] = sat.Slave
				e.satBacklog[idx] = backlog
				e.satLow[lane] = 1 // first fill is due
				continue
			}
			e.gens[idx] = g
			e.scheds[idx], _ = g.(bus.Scheduler)
			lane, m, idx := lane, m, idx
			e.emits[idx] = func(words, slave int) {
				e.enqueue(lane, m, idx, words, slave, e.now[lane])
			}
			// Prime the arrival cache at the first observation cycle —
			// the cycle the scalar loop would first call Tick — so lazily
			// initializing generators anchor their streams identically.
			if s := e.scheds[idx]; s != nil {
				e.nextArr[idx] = s.NextArrival(e.cycle)
			} else {
				e.nextArr[idx] = e.cycle
			}
			if e.nextArr[idx] < ng {
				ng = e.nextArr[idx]
			}
		}
		e.laneNextArr[lane] = ng
	}
	e.built = true
	return nil
}

// enqueue mirrors the scalar engine's arrival path bit for bit,
// including the panic conditions and the drop accounting.
func (e *Engine) enqueue(lane, m, idx, words, slave int, cycle int64) {
	if words <= 0 {
		panic(fmt.Sprintf("bus: master %d emitted %d-word message", m, words))
	}
	if len(e.slaves) > 0 && (slave < 0 || slave >= len(e.slaves)) {
		panic(fmt.Sprintf("bus: master %d addressed invalid slave %d", m, slave))
	}
	q := &e.queues[idx]
	if q.n >= e.masters[m].queueCap {
		e.dropped[idx]++
		e.dropWords[idx] += int64(words)
		e.cols[lane].MessageDropped(m)
		return
	}
	e.enqMsgs[idx]++
	e.enqWords[idx] += int64(words)
	q.push(message{arrival: cycle, words: words, remaining: words, slave: slave})
}

// scanArrivals replays the naive loop's phase 1 for one lane at one
// executed cycle, in master order: inlined Saturating top-ups and Ticks
// of generators whose arrival is due (Tick off an arrival cycle is a
// documented no-op, so skipping it leaves PRNG streams untouched). It
// refreshes the lane's scan gates.
func (e *Engine) scanArrivals(lane, base int, cycle int64) {
	nM := len(e.masters)
	low := int8(0)
	ng := int64(never)
	for m := 0; m < nM; m++ {
		idx := base + m
		if bl := e.satBacklog[idx]; bl > 0 {
			q := &e.queues[idx]
			// Saturating.Tick counts emissions, not acceptances: top up
			// by (backlog - depth) messages even if the queue cap drops
			// some, leaving the queue still low.
			for k := q.n; k < bl; k++ {
				e.enqueue(lane, m, idx, e.satWords[idx], e.satSlave[idx], cycle)
			}
			if q.n < bl {
				low = 1
			}
			continue
		}
		if e.nextArr[idx] <= cycle {
			e.now[lane] = cycle
			e.gens[idx].Tick(cycle, e.queues[idx].n, e.emits[idx])
			if s := e.scheds[idx]; s != nil {
				e.nextArr[idx] = s.NextArrival(cycle + 1)
			} else {
				e.nextArr[idx] = cycle + 1
			}
		}
		if na := e.nextArr[idx]; na < ng {
			ng = na
		}
	}
	e.satLow[lane] = low
	e.laneNextArr[lane] = ng
}

// pending mirrors bus.masterPending (sans retry backoff, which is never
// set without the fault machinery the engine rejects).
func (e *Engine) pending(lane, i int, cycle int64) bool {
	idx := lane*len(e.masters) + i
	if e.outOn[idx] {
		return cycle >= e.respReady[idx]
	}
	return e.queues[idx].n > 0
}

// pendingMask64 builds lane's request map for cycle as a single
// register word — the hot path for systems of at most 64 masters. It is
// kept small enough to inline into runLane so narrow fabrics pay
// nothing for the wide bitset support.
func (e *Engine) pendingMask64(lane, base int, cycle int64) uint64 {
	var mask uint64
	for i := 0; i < len(e.masters); i++ {
		idx := base + i
		if e.outOn[idx] {
			if cycle >= e.respReady[idx] {
				mask |= 1 << uint(i)
			}
		} else if e.queues[idx].n > 0 {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// arbitrateWide runs the idle-bus arbitration phase for fabrics beyond
// one mask word. It lives outside runLane so the narrow hot loop stays
// compact; it reports whether the lane is in a dead gap (idle bus,
// empty request map).
//
//go:noinline
func (e *Engine) arbitrateWide(lane, base int, cycle int64) (deadGap bool, err error) {
	mask := e.pendingMaskWide(lane, base, cycle)
	if !mask.Any() {
		return true, nil
	}
	v := &e.views[lane]
	v.cycle, v.mask = cycle, mask
	if g, ok := e.arbs[lane].Arbitrate(cycle, v); ok {
		if err := e.startBurst(lane, base, g, cycle); err != nil {
			return false, err
		}
	}
	return false, nil
}

// pendingMaskWide is pendingMask64 for fabrics beyond one mask word.
func (e *Engine) pendingMaskWide(lane, base int, cycle int64) core.Bitset {
	var mask core.Bitset
	for i := 0; i < len(e.masters); i++ {
		idx := base + i
		if e.outOn[idx] {
			if cycle >= e.respReady[idx] {
				mask.Set(i)
			}
		} else if e.queues[idx].n > 0 {
			mask.Set(i)
		}
	}
	return mask
}

// startBurst mirrors bus.startBurst for one lane.
func (e *Engine) startBurst(lane, base int, g bus.Grant, cycle int64) error {
	if g.Master < 0 || g.Master >= len(e.masters) {
		return fmt.Errorf("bus: arbiter %q granted invalid master %d", e.arbName, g.Master)
	}
	if !e.pending(lane, g.Master, cycle) {
		return fmt.Errorf("bus: arbiter %q granted idle master %d", e.arbName, g.Master)
	}
	if g.Words <= 0 {
		return fmt.Errorf("bus: arbiter %q granted %d words", e.arbName, g.Words)
	}
	e.cols[lane].Granted(g.Master)
	idx := base + g.Master

	// Split response phase: move the outstanding transaction's data.
	if e.outOn[idx] {
		words := min(g.Words, e.cfg.MaxBurst, e.outMsg[idx].remaining)
		e.bursts[lane] = burst{
			master:          g.Master,
			words:           words,
			fromOutstanding: true,
			waitLeft:        e.cfg.ArbLatency + e.slaves[e.outMsg[idx].slave].waitStates,
		}
		e.burstOn[lane] = true
		return nil
	}

	head := e.queues[idx].front()
	// Split request phase: a single address beat.
	if len(e.slaves) > 0 && e.slaves[head.slave].splitLatency > 0 {
		e.bursts[lane] = burst{master: g.Master, words: 1, control: true, waitLeft: e.cfg.ArbLatency}
		e.burstOn[lane] = true
		return nil
	}

	words := min(g.Words, e.cfg.MaxBurst, head.remaining)
	waitStates := 0
	if len(e.slaves) > 0 {
		waitStates = e.slaves[head.slave].waitStates
	}
	e.bursts[lane] = burst{master: g.Master, words: words, waitLeft: e.cfg.ArbLatency + waitStates}
	e.burstOn[lane] = true
	return nil
}

// transferWord mirrors bus.transferWord (fault branches excluded — the
// engine rejects armed fault models structurally) with word counts
// accumulated in wordsAcc instead of per-beat collector calls.
func (e *Engine) transferWord(lane, base int, b *burst, cycle int64) {
	idx := base + b.master
	var msg *message
	if b.fromOutstanding {
		msg = &e.outMsg[idx]
	} else {
		msg = e.queues[idx].front()
	}

	if !msg.started {
		msg.started = true
		e.cols[lane].MessageStarted(b.master, msg.arrival, cycle)
	}

	if b.control {
		e.cols[lane].ControlCycle(b.master)
		e.outMsg[idx] = *msg
		e.outOn[idx] = true
		e.respReady[idx] = cycle + int64(e.slaves[msg.slave].splitLatency)
		e.popHead(lane, idx)
		e.burstOn[lane] = false
		return
	}

	msg.remaining--
	b.done++
	e.wordsAcc[idx]++
	if nS := len(e.slaves); nS > 0 {
		e.slaveWords[lane*nS+msg.slave]++
	}

	if msg.remaining == 0 {
		e.cols[lane].MessageCompleted(b.master, msg.words, msg.arrival, cycle)
		if b.fromOutstanding {
			e.outOn[idx] = false
		} else {
			e.popHead(lane, idx)
		}
		e.burstOn[lane] = false
		return
	}
	if b.done == b.words {
		e.burstOn[lane] = false
		return
	}
	if len(e.slaves) > 0 {
		b.waitLeft = e.slaves[msg.slave].waitStates
	}
}

// popHead pops lane's queue idx and re-arms the saturating top-up gate
// when the queue belongs to an inlined Saturating generator (a pop is
// the only event that lets it emit again).
func (e *Engine) popHead(lane, idx int) {
	e.queues[idx].pop()
	if e.satBacklog[idx] > 0 {
		e.satLow[lane] = 1
	}
}

// batchBurst advances lane's in-progress burst to limit (exclusive) in
// one step — a per-lane port of the scalar fast-forward engine's
// batchBurst, which proved the transformation replays the naive loop's
// phase 3 bit for bit. Preconditions: burst active, cycle < limit, and
// no arrival on this lane in [cycle, limit). Returns the lane's new
// current cycle.
func (e *Engine) batchBurst(lane, base int, cycle, limit int64) int64 {
	b := &e.bursts[lane]
	idx := base + b.master
	var msg *message
	if b.fromOutstanding {
		msg = &e.outMsg[idx]
	} else {
		msg = e.queues[idx].front()
	}

	// The window may be pure stall (arbitration latency / wait states).
	if int64(b.waitLeft) >= limit-cycle {
		b.waitLeft -= int(limit - cycle)
		return limit
	}
	first := cycle + int64(b.waitLeft) // cycle the next beat moves
	b.waitLeft = 0

	if !msg.started {
		msg.started = true
		e.cols[lane].MessageStarted(b.master, msg.arrival, first)
	}

	// Split request phase: a single address beat at first, then the bus
	// is released while the slave processes.
	if b.control {
		e.cols[lane].ControlCycle(b.master)
		e.outMsg[idx] = *msg
		e.outOn[idx] = true
		e.respReady[idx] = first + int64(e.slaves[msg.slave].splitLatency)
		e.popHead(lane, idx)
		e.burstOn[lane] = false
		return first + 1
	}

	// Data beats move every (1 + waitStates) cycles starting at first.
	waitStates := 0
	if len(e.slaves) > 0 {
		waitStates = e.slaves[msg.slave].waitStates
	}
	stride := int64(waitStates) + 1
	left := int64(b.words - b.done)
	if int64(msg.remaining) < left {
		left = int64(msg.remaining)
	}
	k := (limit - first + stride - 1) / stride // beats before limit
	if k > left {
		k = left
	}
	// k >= 1: first < limit and left >= 1 for any live burst.
	e.wordsAcc[idx] += k
	if nS := len(e.slaves); nS > 0 {
		e.slaveWords[lane*nS+msg.slave] += k
	}
	msg.remaining -= int(k)
	b.done += int(k)
	last := first + (k-1)*stride // cycle of the batch's final beat

	if msg.remaining == 0 {
		e.cols[lane].MessageCompleted(b.master, msg.words, msg.arrival, last)
		if b.fromOutstanding {
			e.outOn[idx] = false
		} else {
			e.popHead(lane, idx)
		}
		e.burstOn[lane] = false
		return last + 1
	}
	if b.done == b.words {
		// Burst budget exhausted mid-message: the master re-contends.
		e.burstOn[lane] = false
		return last + 1
	}
	// Burst continues beyond limit; carry the partial stall remainder.
	b.waitLeft = waitStates - int(limit-last-1)
	return limit
}

// laneNextEvent returns the earliest cycle >= from at which anything can
// happen on an idle lane: a scheduled arrival, a saturating top-up, or a
// split response becoming ready.
func (e *Engine) laneNextEvent(lane, base int, from int64) int64 {
	if e.satLow[lane] != 0 {
		return from
	}
	target := e.laneNextArr[lane]
	for m := 0; m < len(e.masters); m++ {
		idx := base + m
		if e.outOn[idx] && e.respReady[idx] < target {
			target = e.respReady[idx]
		}
	}
	if target < from {
		target = from
	}
	return target
}

// runLane executes cycles [start, end) for one lane: the naive loop's
// three phases on every decision-relevant cycle, with burst interiors
// and dead gaps advanced in bulk exactly like the scalar fast-forward
// engine. The narrow and wide loops are separate functions so fabrics
// of at most 64 masters keep a hot loop with no trace of the
// multi-word path — not even its register pressure.
func (e *Engine) runLane(lane, base int, start, end int64) error {
	if len(e.masters) > 64 {
		return e.runLaneWide(lane, base, start, end)
	}
	return e.runLaneNarrow(lane, base, start, end)
}

// runLaneNarrow is runLane for fabrics of at most 64 masters: the
// request map is one register word and the mask build stays inlined.
func (e *Engine) runLaneNarrow(lane, base int, start, end int64) error {
	for cycle := start; cycle < end; {
		// Phase 1: traffic arrival (gated; the scan is a no-op off every
		// generator's arrival cycles, so it only runs when due).
		if e.satLow[lane] != 0 || e.laneNextArr[lane] <= cycle {
			e.scanArrivals(lane, base, cycle)
		}

		// Phase 2: arbitration when idle.
		mask := uint64(1) // sentinel: "bus busy, not a dead gap"
		if !e.burstOn[lane] {
			if mask = e.pendingMask64(lane, base, cycle); mask != 0 {
				// Narrow engines never set mask words 1..3, so storing
				// word 0 alone keeps the view current without copying
				// the whole bitset.
				v := &e.views[lane]
				v.cycle, v.mask[0] = cycle, mask
				if g, ok := e.arbs[lane].Arbitrate(cycle, v); ok {
					if err := e.startBurst(lane, base, g, cycle); err != nil {
						return err
					}
				}
			}
		}

		// Phase 3: word transfer.
		if e.burstOn[lane] {
			b := &e.bursts[lane]
			if b.waitLeft > 0 {
				b.waitLeft--
			} else {
				e.transferWord(lane, base, b, cycle)
			}
		}
		cycle++

		if e.burstOn[lane] {
			// Mid-burst: only an arrival on this lane needs an executed
			// cycle before the burst's own bookkeeping; batch up to it.
			if e.satLow[lane] == 0 {
				if limit := min(end, e.laneNextArr[lane]); limit > cycle {
					cycle = e.batchBurst(lane, base, cycle, limit)
				}
			}
		} else if mask == 0 {
			// Dead gap: bus idle, no requests. Nothing can happen until
			// the next arrival or a split response becomes ready.
			if target := min(end, e.laneNextEvent(lane, base, cycle)); target > cycle {
				cycle = target
			}
		}
	}
	return nil
}

// runLaneWide is runLane for fabrics beyond one mask word: identical
// phase structure, with arbitration over the full bitset.
func (e *Engine) runLaneWide(lane, base int, start, end int64) error {
	for cycle := start; cycle < end; {
		// Phase 1: traffic arrival.
		if e.satLow[lane] != 0 || e.laneNextArr[lane] <= cycle {
			e.scanArrivals(lane, base, cycle)
		}

		// Phase 2: arbitration when idle.
		deadGap := false // bus idle with an empty request map
		if !e.burstOn[lane] {
			dead, err := e.arbitrateWide(lane, base, cycle)
			if err != nil {
				return err
			}
			deadGap = dead
		}

		// Phase 3: word transfer.
		if e.burstOn[lane] {
			b := &e.bursts[lane]
			if b.waitLeft > 0 {
				b.waitLeft--
			} else {
				e.transferWord(lane, base, b, cycle)
			}
		}
		cycle++

		if e.burstOn[lane] {
			// Mid-burst: batch up to the next arrival on this lane.
			if e.satLow[lane] == 0 {
				if limit := min(end, e.laneNextArr[lane]); limit > cycle {
					cycle = e.batchBurst(lane, base, cycle, limit)
				}
			}
		} else if deadGap {
			// Dead gap: bus idle, no requests.
			if target := min(end, e.laneNextEvent(lane, base, cycle)); target > cycle {
				cycle = target
			}
		}
	}
	return nil
}

// runShard executes cycles [start, end) for lanes [lo, hi) and flushes
// the bulk accumulators.
func (e *Engine) runShard(lo, hi int, start, end int64) error {
	nM := len(e.masters)
	for lane := lo; lane < hi; lane++ {
		if err := e.runLane(lane, lane*nM, start, end); err != nil {
			return err
		}
	}
	// Flush bulk accumulators: pure counters with no event-order
	// sensitivity, so end-of-run batching leaves fingerprints identical
	// (stats.WordsTransferred is documented equivalent to k single-word
	// calls, and the scalar fast path batches AdvanceCycles the same
	// way).
	for lane := lo; lane < hi; lane++ {
		col := e.cols[lane]
		col.AdvanceCycles(end - start)
		for m := 0; m < nM; m++ {
			idx := lane*nM + m
			if w := e.wordsAcc[idx]; w > 0 {
				col.WordsTransferred(m, w)
				e.wordsAcc[idx] = 0
			}
		}
	}
	return nil
}

// Run executes n bus cycles on every lane. It may be called repeatedly
// to continue the simulation; statistics accumulate in the per-lane
// Collectors and are consistent at Run boundaries. An arbiter protocol
// error (invalid grant) aborts the run and leaves the engine state
// undefined.
func (e *Engine) Run(n int64) error {
	if n < 0 {
		return fmt.Errorf("lanes: negative cycle count %d", n)
	}
	if !e.built {
		if err := e.build(); err != nil {
			return err
		}
	}
	start, end := e.cycle, e.cycle+n
	workers := runner.Workers(e.Parallel)
	if workers > e.n {
		workers = e.n
	}
	if err := runner.Do(workers, shardTasks(e, workers, start, end)...); err != nil {
		return err
	}
	e.cycle = end
	return nil
}

// shardTasks splits the lanes into one contiguous block per worker.
func shardTasks(e *Engine, workers int, start, end int64) []func() error {
	tasks := make([]func() error, workers)
	for w := 0; w < workers; w++ {
		lo, hi := e.n*w/workers, e.n*(w+1)/workers
		tasks[w] = func() error { return e.runShard(lo, hi, start, end) }
	}
	return tasks
}

// Collector returns lane's statistics collector, building the topology
// on first use (nil if the topology is invalid — Run reports the error).
func (e *Engine) Collector(lane int) *stats.Collector {
	if !e.built {
		if err := e.build(); err != nil {
			return nil
		}
	}
	return e.cols[lane]
}

// QueueLen returns the number of messages queued at lane's master m.
func (e *Engine) QueueLen(lane, m int) int { return e.queues[lane*len(e.masters)+m].n }

// Dropped returns how many arrivals lane's master m discarded on queue
// overflow.
func (e *Engine) Dropped(lane, m int) int64 { return e.dropped[lane*len(e.masters)+m] }

// Outstanding reports whether lane's master m has a split transaction
// awaiting its response phase.
func (e *Engine) Outstanding(lane, m int) bool { return e.outOn[lane*len(e.masters)+m] }

// SlaveWords returns the words transferred to/from lane's slave s.
func (e *Engine) SlaveWords(lane, s int) int64 { return e.slaveWords[lane*len(e.slaves)+s] }

// Tickets returns master i's lottery ticket holding (lane-invariant).
func (e *Engine) Tickets(i int) uint64 { return e.masters[i].tickets }

// Audit checks lane's conservation invariants at a Run boundary and
// returns human-readable violations (empty when clean) — the lane-engine
// counterpart of check.Audit:
//
//   - grant exclusivity: busy cycles never exceed simulated cycles;
//   - work conservation: busy cycles equal the sum of per-master word
//     and control counts;
//   - word conservation per master: words accepted into the queue equal
//     words transferred plus words still queued or outstanding;
//   - slave/master agreement: per-slave word counts sum to the
//     per-master total.
func (e *Engine) Audit(lane int) []string {
	var v []string
	col := e.Collector(lane)
	if col == nil {
		return []string{"lanes: not built"}
	}
	if col.BusyCycles() > col.Cycles() {
		v = append(v, fmt.Sprintf("busy cycles %d exceed simulated cycles %d", col.BusyCycles(), col.Cycles()))
	}
	var busySum, masterWords int64
	for m := range e.masters {
		busySum += col.Words(m) + col.ControlCycles(m)
		masterWords += col.Words(m)
		idx := lane*len(e.masters) + m
		acct := col.Words(m) + e.queues[idx].words()
		if e.outOn[idx] {
			acct += int64(e.outMsg[idx].remaining)
		}
		if e.enqWords[idx] != acct {
			v = append(v, fmt.Sprintf("master %d word conservation: enqueued %d != transferred+queued+outstanding %d",
				m, e.enqWords[idx], acct))
		}
	}
	if busySum != col.BusyCycles() {
		v = append(v, fmt.Sprintf("work conservation: busy %d != per-master words+control %d", col.BusyCycles(), busySum))
	}
	if len(e.slaves) > 0 {
		var slaveSum int64
		for s := range e.slaves {
			slaveSum += e.slaveWords[lane*len(e.slaves)+s]
		}
		if slaveSum != masterWords {
			v = append(v, fmt.Sprintf("slave words %d != master words %d", slaveSum, masterWords))
		}
	}
	return v
}

// laneView adapts one lane to the bus.Requests interface without
// allocation; cycle and mask are set by the loop before each Arbitrate.
type laneView struct {
	e     *Engine
	lane  int
	cycle int64
	mask  core.Bitset
}

func (v *laneView) NumMasters() int { return len(v.e.masters) }

func (v *laneView) Pending(i int) bool { return v.e.pending(v.lane, i, v.cycle) }

func (v *laneView) Mask() core.Bitset { return v.mask }

func (v *laneView) PendingWords(i int) int {
	if !v.e.pending(v.lane, i, v.cycle) {
		return 0
	}
	idx := v.lane*len(v.e.masters) + i
	if v.e.outOn[idx] {
		return v.e.outMsg[idx].remaining
	}
	return v.e.queues[idx].front().remaining
}

func (v *laneView) Tickets(i int) uint64 { return v.e.masters[i].tickets }
