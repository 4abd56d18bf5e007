// Package bus implements a cycle-accurate model of a shared system-on-chip
// bus: masters posting communication transactions, slaves with optional
// wait states, bounded master-interface queues, burst transfers capped by
// a maximum transfer size, and a pluggable arbiter — the substrate on
// which every LOTTERYBUS experiment runs.
//
// The timing model is synchronous, one word per bus cycle:
//
//  1. traffic generators deliver newly arrived messages to the master
//     interfaces;
//  2. if the bus is idle, the arbiter examines the accumulated request
//     map and may issue a grant (arbitration is pipelined with data
//     transfer by default, matching paper §4.1; Config.ArbLatency
//     inserts idle cycles per grant for non-pipelined designs);
//  3. the granted master transfers one word (plus any slave wait
//     states); a grant covers at most MaxBurst words of a single
//     message, "to prevent a master from monopolizing the bus".
//
// The model has no opinion about arbitration policy: package arb provides
// static-priority, TDMA, round-robin and lottery arbiters behind the
// Arbiter interface defined here.
package bus

import (
	"fmt"

	"lotterybus/internal/core"
	"lotterybus/internal/stats"
)

// Grant is an arbiter's decision: the winning master and the maximum
// number of words this grant covers. The bus additionally clamps the
// burst to the head message's remaining words and Config.MaxBurst.
type Grant struct {
	Master int
	Words  int
}

// Requests is the arbiter's view of the master interfaces at one cycle:
// the request map plus the per-master state a hardware arbiter would see
// on its input lines (pending word counts for burst sizing, current
// lottery ticket holdings for a dynamic lottery manager).
type Requests interface {
	// NumMasters returns the number of master interfaces on the bus.
	NumMasters() int
	// Pending reports whether master i has a pending request (r_i).
	Pending(i int) bool
	// Mask returns the request map as a bitset (bit i == r_i). On a
	// bus of at most 64 masters the whole map is Mask().Mask64().
	Mask() core.Bitset
	// PendingWords returns the remaining word count of master i's head
	// message, or 0 when idle.
	PendingWords(i int) int
	// Tickets returns master i's current lottery ticket holding.
	Tickets(i int) uint64
}

// Arbiter decides bus ownership. Arbitrate is called whenever the bus
// needs a new grant (it is never called with an empty request map). An
// arbiter may decline to grant (ok == false), costing one idle cycle —
// the redraw slack policy of a hardware lottery manager does exactly
// that.
type Arbiter interface {
	// Name identifies the arbitration scheme in reports.
	Name() string
	// Arbitrate picks a winner among the pending requests.
	Arbitrate(cycle int64, req Requests) (Grant, bool)
}

// Preemptor is an optional Arbiter extension enabling transfer
// pre-emption (paper §2.3 lists pre-emption among the features any of
// these architectures can add). When the bus runs with
// Config.Preemption and its arbiter implements Preemptor, Preempt is
// consulted every cycle of an ongoing burst; returning a grant for a
// different master aborts the burst (the interrupted message keeps its
// queue position and re-arbitrates for its remaining words).
type Preemptor interface {
	Arbiter
	// Preempt reports whether, given the current request map, the burst
	// held by owner should be interrupted in favour of another master.
	Preempt(cycle int64, owner int, req Requests) (Grant, bool)
}

// FaultModel is the bus's view of a fault injector (package fault
// provides the deterministic, seeded implementation). All methods must
// be pure functions of the injector's own PRNG state — the bus consults
// them in a fixed per-cycle order, so a deterministic model yields
// bit-reproducible degraded runs. A model with Armed() == false is
// ignored entirely and the bus behaves exactly as if none were
// attached (the fast-forward engine stays eligible).
type FaultModel interface {
	// Armed reports whether any fault mechanism can fire. The bus
	// checks it once per Run.
	Armed() bool
	// ErrorResponse reports whether the slave asserts an error
	// termination on this data beat: the beat is consumed, the burst
	// terminates, and the master's retry machinery takes over.
	ErrorResponse(cycle int64, master, slave int) bool
	// WordError reports a transient single-word corruption: the beat is
	// consumed against the grant budget but the word must be resent.
	WordError(cycle int64, master, slave int) bool
	// SplitHang reports whether the slave silently drops this split
	// request: the response phase never becomes ready and only the bus
	// watchdog (Config.SplitTimeout) can free the master.
	SplitHang(cycle int64, master, slave int) bool
	// Babble lets a misbehaving master inject a spurious message this
	// cycle (ok == false when master is well-behaved or idle).
	Babble(cycle int64, master int) (words, slave int, ok bool)
}

// Generator produces the communication transactions of one master.
// Implementations live in package traffic.
type Generator interface {
	// Tick is called once per cycle, before arbitration, with the
	// master's current queue depth. The generator calls emit once per
	// message arriving this cycle (words >= 1, slave is the destination
	// slave index).
	Tick(cycle int64, queued int, emit func(words, slave int))
}

// Config parameterizes a Bus.
type Config struct {
	// MaxBurst caps the words a single grant may cover. Zero selects
	// the paper's default of 16 (Fig. 1, BURST_SIZE=16).
	MaxBurst int
	// ArbLatency is the number of idle bus cycles consumed by each
	// arbitration before the first word of the burst moves. Zero models
	// arbitration fully pipelined with data transfer (paper §4.1).
	ArbLatency int
	// DefaultQueueCap bounds each master-interface queue (messages).
	// Zero selects 1024; arrivals beyond the cap are dropped and
	// counted.
	DefaultQueueCap int
	// Preemption lets a Preemptor arbiter interrupt ongoing bursts.
	Preemption bool
	// RetryLimit bounds how many times a master re-attempts a burst
	// terminated by a slave error response before the message is
	// aborted. Zero selects 16. Only consulted when a fault model is
	// armed (error responses cannot occur otherwise).
	RetryLimit int
	// RetryBackoff is the linear backoff unit: after its k-th
	// consecutive error on a message, a master stays off the request
	// lines for 1 + k*RetryBackoff cycles. Zero retries on the next
	// cycle.
	RetryBackoff int
	// SplitTimeout, when positive, arms the bus watchdog: an
	// outstanding split transaction whose response has not become ready
	// within SplitTimeout cycles of its address beat is aborted,
	// freeing the master. Forces the per-cycle loop.
	SplitTimeout int64
	// StarvationThreshold, when positive, arms the starvation detector:
	// every cycle a pending master has waited at or beyond the
	// threshold is counted, and waits that long are recorded as
	// starvation events. Forces the per-cycle loop.
	StarvationThreshold int64
}

func (c *Config) fill() {
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

// message is one queued communication transaction.
type message struct {
	arrival   int64
	words     int
	remaining int
	slave     int
	started   bool
}

// msgQueue is a growable ring buffer of messages. The simulator enqueues
// and dequeues millions of messages per run; a ring reaches its
// steady-state capacity once and then recycles it, where a sliced-and-
// appended Go slice would reallocate continually. Capacities are always
// powers of two (8, 16, 32, ...), so index wrapping is a bitmask rather
// than an integer modulo on the hot path.
type msgQueue struct {
	buf  []message
	head int
	n    int
}

// len returns the number of queued messages.
func (q *msgQueue) len() int { return q.n }

// front returns the head message. The pointer is invalidated by the next
// push (the ring may grow), so callers must not retain it across cycles.
func (q *msgQueue) front() *message {
	return &q.buf[q.head]
}

// push appends a message, growing the ring if full.
func (q *msgQueue) push(m message) {
	if q.n == len(q.buf) {
		// Doubling from 8 keeps every capacity a power of two.
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

// pop discards the head message.
func (q *msgQueue) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// words sums the remaining word counts of all queued messages.
func (q *msgQueue) words() int64 {
	var w int64
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		w += int64(q.buf[(q.head+i)&mask].remaining)
	}
	return w
}

// Master is one master interface on the bus.
type Master struct {
	name     string
	gen      Generator
	queue    msgQueue
	queueCap int
	tickets  uint64
	dropped  int64
	// emit is the generator callback, allocated once per master rather
	// than once per cycle in the hot loop.
	emit func(words, slave int)
	// outstanding is the split transaction awaiting its response phase
	// (at most one per master); respReady is the cycle its data becomes
	// available. It always points at outBuf, reused across transactions.
	outstanding *message
	outBuf      message
	respReady   int64
	// Resilience state, all quiescent (and cost-free on the hot path)
	// unless the fault machinery is in play. retries counts consecutive
	// error terminations of the head message; backoffUntil keeps the
	// master off the request lines until that cycle; splitIssued stamps
	// the address beat of the outstanding split for the watchdog;
	// waitSince (-1 when not waiting) stamps the cycle the current
	// pending wait began for the starvation detector.
	retries      int
	backoffUntil int64
	splitIssued  int64
	waitSince    int64
	// Conservation ledger (package check audits it after a run): every
	// word accepted into the queue is accounted enqueued; words of
	// arrivals refused on overflow are accounted dropped; words of
	// messages abandoned mid-flight (retry limit, watchdog) are
	// accounted lost. enqueued == transferred + lost + still queued or
	// outstanding must hold at any Run boundary.
	enqMsgs   int64
	enqWords  int64
	dropWords int64
	lostWords int64
}

// Name returns the master's name.
func (m *Master) Name() string { return m.name }

// Tickets returns the master's current lottery ticket holding.
func (m *Master) Tickets() uint64 { return m.tickets }

// SetTickets updates the master's lottery ticket holding; a dynamic
// lottery arbiter observes the new value at its next arbitration.
func (m *Master) SetTickets(t uint64) { m.tickets = t }

// QueueLen returns the number of queued messages.
func (m *Master) QueueLen() int { return m.queue.len() }

// Dropped returns how many arrivals were discarded on queue overflow.
func (m *Master) Dropped() int64 { return m.dropped }

// Outstanding reports whether a split transaction is awaiting its
// response phase.
func (m *Master) Outstanding() bool { return m.outstanding != nil }

// EnqueuedMessages returns how many messages were accepted into the
// master's queue (generator arrivals, Inject calls and babble alike).
func (m *Master) EnqueuedMessages() int64 { return m.enqMsgs }

// EnqueuedWords returns the total words of all accepted messages.
func (m *Master) EnqueuedWords() int64 { return m.enqWords }

// DroppedWords returns the total words of arrivals refused on queue
// overflow (the word-granular counterpart of Dropped).
func (m *Master) DroppedWords() int64 { return m.dropWords }

// LostWords returns the words of messages abandoned mid-flight by the
// resilience machinery — the untransferred remainder of bursts killed
// past the retry limit and of split transactions aborted by the
// watchdog. Always zero on a fault-free bus.
func (m *Master) LostWords() int64 { return m.lostWords }

// QueuedWords returns the remaining words of all messages still in the
// master's queue.
func (m *Master) QueuedWords() int64 { return m.queue.words() }

// OutstandingWords returns the remaining words of the master's
// outstanding split transaction, or zero when none is pending.
func (m *Master) OutstandingWords() int64 {
	if m.outstanding == nil {
		return 0
	}
	return int64(m.outstanding.remaining)
}

// Slave is one slave interface on the bus.
type Slave struct {
	name         string
	waitStates   int
	splitLatency int
	words        int64
}

// Name returns the slave's name.
func (s *Slave) Name() string { return s.name }

// Words returns the number of words transferred to/from this slave.
func (s *Slave) Words() int64 { return s.words }

// MasterOpts configures AddMaster.
type MasterOpts struct {
	// QueueCap overrides Config.DefaultQueueCap when nonzero.
	QueueCap int
	// Tickets is the initial lottery ticket holding (ignored by
	// non-lottery arbiters). Zero is allowed but a dynamic lottery will
	// never grant a zero-ticket master while others hold tickets.
	Tickets uint64
}

// SlaveOpts configures AddSlave.
type SlaveOpts struct {
	// WaitStates is the number of extra bus cycles each word transfer
	// to this slave consumes.
	WaitStates int
	// SplitLatency, when positive, makes the slave a split-transaction
	// target (paper §2.3's "multithreaded transactions"): a granted
	// request occupies the bus for a single address beat, the bus is
	// released while the slave processes for SplitLatency cycles, and
	// the master then re-arbitrates to move the data words. Each master
	// may have one split transaction outstanding.
	SplitLatency int
}

// burst tracks the transfer in progress. It deliberately does not hold
// a *message: queue-head messages live in a ring buffer whose backing
// array can move when the generator pushes, so the live message is
// re-fetched each cycle.
type burst struct {
	master int
	words  int // words covered by this grant
	done   int
	// control marks a split-request address beat (one bus cycle, no
	// data words).
	control bool
	// fromOutstanding marks a split response-phase transfer.
	fromOutstanding bool
	waitLeft        int // cycles to stall before the next word moves
}

// Bus is a shared bus instance. Construct with New, populate with
// AddMaster/AddSlave, attach an arbiter with SetArbiter, then Run.
type Bus struct {
	cfg     Config
	masters []*Master
	slaves  []*Slave
	arb     Arbiter
	col     *stats.Collector
	cycle   int64
	// cur points at curBuf while a burst is in progress (nil otherwise);
	// the buffer is reused so steady-state grants allocate nothing.
	cur    *burst
	curBuf burst
	// preemptions counts bursts aborted by a Preemptor arbiter.
	preemptions int64
	// fault is the attached fault model (nil for a clean bus); fm is
	// the armed view the hot paths consult — nil whenever fault is nil
	// or disarmed, so a disarmed model costs nothing per cycle.
	fault FaultModel
	fm    FaultModel
	// OnOwner, when non-nil, is invoked once per cycle with the index of
	// the master that transferred a word this cycle, or -1 for an idle
	// (or stalled) cycle. Package trace uses it to record waveforms.
	OnOwner func(cycle int64, master int)
	// OnCycle, when non-nil, is invoked at the start of every cycle,
	// before traffic generation — the hook dynamic-ticket policies use
	// to re-provision holdings at run time.
	OnCycle func(cycle int64, b *Bus)
	// OnMessageComplete, when non-nil, is invoked when the last word of
	// a message transfers, with completion set to that word's cycle.
	// Bridges use it to forward transactions onto another bus. Both
	// engines fire it in completion order with identical arguments, but
	// the fast path may call it mid-batch, so the callback must take
	// the cycle from its arguments and must not mutate its own bus.
	OnMessageComplete func(master, words, slave int, arrival, completion int64)

	// DisableFastForward forces the naive per-cycle loop even when the
	// fast-forward engine's preconditions hold (see fastforward.go).
	// The equivalence suite and the microbenchmarks use it to compare
	// the two paths; production callers never need it.
	DisableFastForward bool

	// mask caches the request map for cycle maskFor, so arbiters calling
	// Requests.Mask during arbitration reuse the bus's own computation
	// instead of recomputing it master by master. A split transaction's
	// pending state is a function of the cycle (respReady), so the cache
	// is valid for exactly one cycle; maskFor is -1 when nothing is
	// cached.
	mask    core.Bitset
	maskFor int64

	// ffCycles counts simulated cycles advanced in bulk by the
	// fast-forward engine (dead-gap skips plus batched burst cycles).
	ffCycles int64

	// unscheduled counts the generators that do not implement
	// Scheduler; any one of them keeps the bus on the naive loop.
	unscheduled int

	// The fast path's own state (fastforward.go): the arrival calendar
	// and the incremental request map (queued: queue non-empty; splits:
	// split outstanding). fastLive is false until they are rebuilt for
	// the current masters and state; AddMaster and naive-loop Runs clear
	// it.
	cal            []calEntry
	queued, splits core.Bitset
	fastLive       bool

	// slavesChecked counts the slaves validate has already accepted;
	// slave options never change after AddSlave.
	slavesChecked int

	reqView requestView
}

// New returns an empty bus with the given configuration.
func New(cfg Config) *Bus {
	cfg.fill()
	b := &Bus{cfg: cfg, maskFor: -1}
	b.reqView.b = b
	return b
}

// AddMaster attaches a master interface driven by gen and returns it.
// gen may be nil for a master fed only by Inject.
func (b *Bus) AddMaster(name string, gen Generator, opts MasterOpts) *Master {
	cap := opts.QueueCap
	if cap == 0 {
		cap = b.cfg.DefaultQueueCap
	}
	m := &Master{name: name, gen: gen, queueCap: cap, tickets: opts.Tickets, waitSince: -1}
	idx := len(b.masters)
	m.emit = func(words, slave int) {
		b.enqueue(idx, words, slave, b.cycle)
	}
	b.masters = append(b.masters, m)
	if _, ok := gen.(Scheduler); gen != nil && !ok {
		b.unscheduled++
	}
	b.fastLive = false
	return m
}

// AddSlave attaches a slave interface and returns its index.
func (b *Bus) AddSlave(name string, opts SlaveOpts) int {
	b.slaves = append(b.slaves, &Slave{
		name:         name,
		waitStates:   opts.WaitStates,
		splitLatency: opts.SplitLatency,
	})
	return len(b.slaves) - 1
}

// SetArbiter attaches the arbitration scheme.
func (b *Bus) SetArbiter(a Arbiter) { b.arb = a }

// SetFaultModel attaches a fault injector. A nil or disarmed model
// leaves the bus bit-identical to a clean one; an armed model forces
// the per-cycle loop for the whole Run.
func (b *Bus) SetFaultModel(fm FaultModel) { b.fault = fm }

// FaultModel returns the attached fault model (nil when none).
func (b *Bus) FaultModel() FaultModel { return b.fault }

// Arbiter returns the attached arbiter.
func (b *Bus) Arbiter() Arbiter { return b.arb }

// Masters returns the master interfaces in index order.
func (b *Bus) Masters() []*Master { return b.masters }

// Master returns master i.
func (b *Bus) Master(i int) *Master { return b.masters[i] }

// Slave returns slave i.
func (b *Bus) Slave(i int) *Slave { return b.slaves[i] }

// NumMasters returns the number of master interfaces.
func (b *Bus) NumMasters() int { return len(b.masters) }

// NumSlaves returns the number of slave interfaces.
func (b *Bus) NumSlaves() int { return len(b.slaves) }

// Collector returns the statistics collector (created on first use or by
// Run).
func (b *Bus) Collector() *stats.Collector {
	if b.col == nil {
		b.col = stats.NewCollector(len(b.masters))
	}
	return b.col
}

// Cycle returns the current simulation cycle (the next cycle to execute).
func (b *Bus) Cycle() int64 { return b.cycle }

// Busy reports whether a burst transfer is in progress.
func (b *Bus) Busy() bool { return b.cur != nil }

// Preemptions returns the number of bursts aborted by pre-emption.
func (b *Bus) Preemptions() int64 { return b.preemptions }

// FastForwarded returns the number of simulated cycles the fast-forward
// engine advanced in bulk instead of executing one by one: dead-gap
// skips (idle bus, empty request map) plus the cycles of batched burst
// transfers beyond each batch's first. Zero after a run means the naive
// loop ran throughout (hooks, an active preemptor, or a generator
// without a Scheduler force it; see fastforward.go).
func (b *Bus) FastForwarded() int64 { return b.ffCycles }

// Inject enqueues a message on master m programmatically, bypassing its
// generator. It reports whether the message was accepted (false on queue
// overflow, which is also counted against the master).
func (b *Bus) Inject(m int, words, slave int) bool {
	if !b.enqueue(m, words, slave, b.cycle) {
		return false
	}
	b.queued.Set(m) // keep the fast path's request map current
	return true
}

func (b *Bus) enqueue(m int, words, slave int, cycle int64) bool {
	if words <= 0 {
		panic(fmt.Sprintf("bus: master %d emitted %d-word message", m, words))
	}
	if len(b.slaves) > 0 && (slave < 0 || slave >= len(b.slaves)) {
		panic(fmt.Sprintf("bus: master %d addressed invalid slave %d", m, slave))
	}
	mm := b.masters[m]
	if mm.queue.len() >= mm.queueCap {
		mm.dropped++
		mm.dropWords += int64(words)
		if b.col != nil {
			b.col.MessageDropped(m)
		}
		return false
	}
	mm.enqMsgs++
	mm.enqWords += int64(words)
	mm.queue.push(message{arrival: cycle, words: words, remaining: words, slave: slave})
	return true
}

// validate checks the bus is runnable.
func (b *Bus) validate() error {
	if len(b.masters) == 0 {
		return fmt.Errorf("bus: no masters")
	}
	if len(b.masters) > core.MaxMasters {
		return fmt.Errorf("bus: %d masters exceeds core.MaxMasters (%d)", len(b.masters), core.MaxMasters)
	}
	if b.arb == nil {
		return fmt.Errorf("bus: no arbiter attached")
	}
	if b.col != nil && b.col.N() != len(b.masters) {
		return fmt.Errorf("bus: collector tracks %d masters, bus has %d", b.col.N(), len(b.masters))
	}
	// Negative timing parameters would silently corrupt the cycle
	// accounting (fill only replaces zeros), so reject them up front.
	if b.cfg.MaxBurst < 0 {
		return fmt.Errorf("bus: negative MaxBurst %d", b.cfg.MaxBurst)
	}
	if b.cfg.ArbLatency < 0 {
		return fmt.Errorf("bus: negative ArbLatency %d", b.cfg.ArbLatency)
	}
	if b.cfg.DefaultQueueCap < 0 {
		return fmt.Errorf("bus: negative DefaultQueueCap %d", b.cfg.DefaultQueueCap)
	}
	if b.cfg.RetryLimit < 0 {
		return fmt.Errorf("bus: negative RetryLimit %d", b.cfg.RetryLimit)
	}
	if b.cfg.RetryBackoff < 0 {
		return fmt.Errorf("bus: negative RetryBackoff %d", b.cfg.RetryBackoff)
	}
	if b.cfg.SplitTimeout < 0 {
		return fmt.Errorf("bus: negative SplitTimeout %d", b.cfg.SplitTimeout)
	}
	if b.cfg.StarvationThreshold < 0 {
		return fmt.Errorf("bus: negative StarvationThreshold %d", b.cfg.StarvationThreshold)
	}
	for ; b.slavesChecked < len(b.slaves); b.slavesChecked++ {
		i, s := b.slavesChecked, b.slaves[b.slavesChecked]
		if s.waitStates < 0 {
			return fmt.Errorf("bus: slave %d (%s) has negative WaitStates %d", i, s.name, s.waitStates)
		}
		if s.splitLatency < 0 {
			return fmt.Errorf("bus: slave %d (%s) has negative SplitLatency %d", i, s.name, s.splitLatency)
		}
	}
	return nil
}

// Run executes n bus cycles. It may be called repeatedly to continue the
// simulation. Statistics accumulate in Collector().
//
// When no per-cycle observer is attached and every generator is
// event-predictable, Run dispatches to the fast-forward engine
// (fastforward.go), which produces bit-identical results while leaping
// over dead cycles; otherwise the naive per-cycle loop below runs.
func (b *Bus) Run(n int64) error {
	if err := b.validate(); err != nil {
		return err
	}
	col := b.Collector()
	if !b.DisableFastForward && b.fastForwardable() {
		// A fault model disarmed since the last naive Run must not be
		// consulted: the fast path runs as on a clean bus.
		b.fm = nil
		if !b.fastLive {
			if until := b.rebuildFast(); until > b.cycle {
				// A retry backoff left by a faulted Run keeps its master
				// off the request lines, which the incremental map cannot
				// express: step it out on the naive loop.
				k := min(n, until-b.cycle)
				if err := b.runNaive(k, col); err != nil || k == n {
					return err
				}
				n -= k
				b.rebuildFast()
			}
		}
		return b.runFast(n, col)
	}
	return b.runNaive(n, col)
}

// runNaive executes n cycles on the per-cycle reference loop. It does
// not maintain the fast path's calendar or request map, so it marks
// them stale.
func (b *Bus) runNaive(n int64, col *stats.Collector) error {
	b.fastLive = false
	// Hoist loop invariants: the preemptor type assertion and the slow
	// per-cycle hook checks would otherwise run every simulated cycle.
	var pre Preemptor
	if b.cfg.Preemption {
		pre, _ = b.arb.(Preemptor)
	}
	b.fm = nil
	if b.fault != nil && b.fault.Armed() {
		b.fm = b.fault
	}
	splitTO := b.cfg.SplitTimeout
	starveThr := b.cfg.StarvationThreshold
	wide := len(b.masters) > 64
	end := b.cycle + n
	for ; b.cycle < end; b.cycle++ {
		cycle := b.cycle
		if b.OnCycle != nil {
			b.OnCycle(cycle, b)
		}

		// Phase 1: traffic arrival, plus spurious babble injection.
		for i, m := range b.masters {
			if b.fm != nil {
				if words, slave, ok := b.fm.Babble(cycle, i); ok {
					b.enqueue(i, words, slave, cycle)
				}
			}
			if m.gen == nil {
				continue
			}
			m.gen.Tick(cycle, m.queue.len(), m.emit)
		}

		// Watchdog: abort split transactions whose response never came.
		if splitTO > 0 {
			for i, m := range b.masters {
				if m.outstanding != nil && m.respReady > cycle &&
					cycle-m.splitIssued >= splitTO {
					col.SplitTimeout(i)
					col.Abort(i)
					m.lostWords += int64(m.outstanding.remaining)
					m.outstanding = nil
					m.retries = 0
				}
			}
		}

		// Phase 2: arbitration when idle; pre-emption check otherwise.
		if b.cur == nil {
			if !wide {
				if w := b.requestMask64(); w != 0 {
					// Narrow buses never set mask words 1..3, so storing
					// word 0 alone keeps the cache current without
					// copying the whole bitset.
					b.mask[0], b.maskFor = w, cycle
					if g, ok := b.arb.Arbitrate(cycle, &b.reqView); ok {
						if err := b.startBurst(g, col); err != nil {
							return err
						}
					}
				}
			} else if mask := b.requestMaskWide(); mask.Any() {
				b.mask, b.maskFor = mask, cycle
				if g, ok := b.arb.Arbitrate(cycle, &b.reqView); ok {
					if err := b.startBurst(g, col); err != nil {
						return err
					}
				}
			}
		} else if pre != nil {
			b.mask, b.maskFor = b.requestMask(), cycle
			if g, ok := pre.Preempt(cycle, b.cur.master, &b.reqView); ok && g.Master != b.cur.master {
				b.preemptions++
				b.cur = nil
				if err := b.startBurst(g, col); err != nil {
					return err
				}
			}
		}

		// Phase 3: word transfer.
		owner := -1
		if b.cur != nil {
			if b.cur.waitLeft > 0 {
				b.cur.waitLeft--
			} else {
				owner = b.transferWord(col)
			}
		}
		if b.OnOwner != nil {
			b.OnOwner(cycle, owner)
		}
		if starveThr > 0 {
			b.scanStarvation(col, starveThr)
		}
		col.AdvanceCycles(1)
	}
	if starveThr > 0 {
		// Fold waits still in progress into the max-wait tracker without
		// ending them: a master that was never granted shows its full,
		// unbounded wait here. waitSince is kept so a follow-up Run
		// continues the same wait.
		for i, m := range b.masters {
			if m.waitSince >= 0 {
				col.WaitObserved(i, b.cycle-m.waitSince)
			}
		}
	}
	return nil
}

// scanStarvation advances the starvation detector one cycle: a master
// pending on the request lines while another (or nobody) holds the bus
// is waiting; each waiting cycle at or beyond thr counts as starved,
// and a wait's end is scored as an event when it reached thr.
func (b *Bus) scanStarvation(col *stats.Collector, thr int64) {
	owner := -1
	if b.cur != nil {
		owner = b.cur.master
	}
	for i, m := range b.masters {
		if i == owner || !b.masterPending(i) {
			if m.waitSince >= 0 {
				col.WaitEnded(i, b.cycle-m.waitSince, thr)
				m.waitSince = -1
			}
			continue
		}
		if m.waitSince < 0 {
			m.waitSince = b.cycle
		} else if b.cycle-m.waitSince >= thr {
			col.StarvedCycle(i)
		}
	}
}

// requestMask64 builds the cycle's request map for buses of at most 64
// masters — one register word, kept small enough to inline into the
// cycle loops so the pre-bitset hot path survives unchanged. Wide
// fabrics go through requestMaskWide instead.
func (b *Bus) requestMask64() uint64 {
	var w uint64
	for i := range b.masters {
		if b.masterPending(i) {
			w |= 1 << uint(i)
		}
	}
	return w
}

// requestMaskWide is requestMask64 for fabrics beyond one mask word.
func (b *Bus) requestMaskWide() core.Bitset {
	var mask core.Bitset
	for i := range b.masters {
		if b.masterPending(i) {
			mask.Set(i)
		}
	}
	return mask
}

// requestMask builds the cycle's request map at either width; the hot
// loops dispatch to the narrow/wide variants themselves to keep the
// ≤64-master path inlined.
func (b *Bus) requestMask() core.Bitset {
	if len(b.masters) <= 64 {
		var mask core.Bitset
		mask[0] = b.requestMask64()
		return mask
	}
	return b.requestMaskWide()
}

// masterPending reports whether master i's request line is asserted: a
// ready split response takes precedence; a master with an outstanding
// split transaction is otherwise masked (one outstanding per master).
func (b *Bus) masterPending(i int) bool {
	m := b.masters[i]
	if m.backoffUntil > b.cycle {
		// Retry backoff after an error termination; never set on a
		// fault-free bus, so this is one dead compare on the hot path.
		return false
	}
	if m.outstanding != nil {
		return b.cycle >= m.respReady
	}
	return m.queue.len() > 0
}

func (b *Bus) startBurst(g Grant, col *stats.Collector) error {
	if g.Master < 0 || g.Master >= len(b.masters) {
		return fmt.Errorf("bus: arbiter %q granted invalid master %d", b.arb.Name(), g.Master)
	}
	m := b.masters[g.Master]
	if !b.masterPending(g.Master) {
		return fmt.Errorf("bus: arbiter %q granted idle master %d", b.arb.Name(), g.Master)
	}
	if g.Words <= 0 {
		return fmt.Errorf("bus: arbiter %q granted %d words", b.arb.Name(), g.Words)
	}
	col.Granted(g.Master)

	// Split response phase: move the outstanding transaction's data.
	if m.outstanding != nil {
		words := g.Words
		if words > b.cfg.MaxBurst {
			words = b.cfg.MaxBurst
		}
		if words > m.outstanding.remaining {
			words = m.outstanding.remaining
		}
		b.curBuf = burst{
			master:          g.Master,
			words:           words,
			fromOutstanding: true,
			waitLeft:        b.cfg.ArbLatency + b.slaves[m.outstanding.slave].waitStates,
		}
		b.cur = &b.curBuf
		return nil
	}

	head := m.queue.front()
	// Split request phase: a single address beat, then the bus is
	// released while the slave processes.
	if len(b.slaves) > 0 && b.slaves[head.slave].splitLatency > 0 {
		b.curBuf = burst{
			master:   g.Master,
			words:    1,
			control:  true,
			waitLeft: b.cfg.ArbLatency,
		}
		b.cur = &b.curBuf
		return nil
	}

	words := g.Words
	if words > b.cfg.MaxBurst {
		words = b.cfg.MaxBurst
	}
	if words > head.remaining {
		words = head.remaining
	}
	waitStates := 0
	if len(b.slaves) > 0 {
		waitStates = b.slaves[head.slave].waitStates
	}
	b.curBuf = burst{
		master:   g.Master,
		words:    words,
		waitLeft: b.cfg.ArbLatency + waitStates,
	}
	b.cur = &b.curBuf
	return nil
}

// transferWord moves one word of the active burst and returns the owning
// master index.
func (b *Bus) transferWord(col *stats.Collector) int {
	cur := b.cur
	m := b.masters[cur.master]
	var msg *message
	if cur.fromOutstanding {
		msg = m.outstanding
	} else {
		msg = m.queue.front()
	}

	if !msg.started {
		msg.started = true
		col.MessageStarted(cur.master, msg.arrival, b.cycle)
	}

	// Split request address beat: one control cycle, then the bus is
	// released while the slave processes.
	if cur.control {
		col.ControlCycle(cur.master)
		m.outBuf = *msg
		m.outstanding = &m.outBuf
		m.respReady = b.cycle + int64(b.slaves[msg.slave].splitLatency)
		m.splitIssued = b.cycle
		if b.fm != nil && b.fm.SplitHang(b.cycle, cur.master, msg.slave) {
			// The slave drops the request: the response never becomes
			// ready and only the watchdog can free this master.
			m.respReady = never
		}
		m.queue.pop()
		b.cur = nil
		return cur.master
	}

	if b.fm != nil {
		if b.fm.ErrorResponse(b.cycle, cur.master, msg.slave) {
			// Slave error termination: the beat is consumed, the burst
			// dies, and the retry machinery decides the message's fate.
			col.ErrorWord(cur.master)
			b.failBurst(col, cur, m)
			return cur.master
		}
		if b.fm.WordError(b.cycle, cur.master, msg.slave) {
			// Transient corruption: the beat counts against the grant
			// budget (bounding grant length under faults) but the word
			// must be resent, so remaining is untouched.
			col.ErrorWord(cur.master)
			cur.done++
			if cur.done == cur.words {
				b.cur = nil
				return cur.master
			}
			if len(b.slaves) > 0 {
				cur.waitLeft = b.slaves[msg.slave].waitStates
			}
			return cur.master
		}
	}

	msg.remaining--
	cur.done++
	col.WordTransferred(cur.master)
	if len(b.slaves) > 0 {
		b.slaves[msg.slave].words++
	}

	if msg.remaining == 0 {
		col.MessageCompleted(cur.master, msg.words, msg.arrival, b.cycle)
		if b.OnMessageComplete != nil {
			b.OnMessageComplete(cur.master, msg.words, msg.slave, msg.arrival, b.cycle)
		}
		if cur.fromOutstanding {
			m.outstanding = nil
		} else {
			m.queue.pop()
		}
		m.retries = 0
		b.cur = nil
		return cur.master
	}
	if cur.done == cur.words {
		// Burst budget exhausted mid-message: the master re-contends.
		b.cur = nil
		return cur.master
	}
	// More words in this burst; charge the slave's wait states again.
	if len(b.slaves) > 0 {
		cur.waitLeft = b.slaves[msg.slave].waitStates
	}
	return cur.master
}

// failBurst terminates the active burst after a slave error response.
// Within the retry budget the message keeps its queue position (or its
// outstanding slot) and the master backs off linearly before
// re-contending; past the budget the message is abandoned.
func (b *Bus) failBurst(col *stats.Collector, cur *burst, m *Master) {
	mi := cur.master
	m.retries++
	if m.retries > b.cfg.RetryLimit {
		col.Abort(mi)
		m.retries = 0
		if cur.fromOutstanding {
			m.lostWords += int64(m.outstanding.remaining)
			m.outstanding = nil
		} else {
			m.lostWords += int64(m.queue.front().remaining)
			m.queue.pop()
		}
	} else {
		col.Retry(mi)
		m.backoffUntil = b.cycle + 1 + int64(b.cfg.RetryBackoff*m.retries)
	}
	b.cur = nil
}

// requestView adapts Bus to the Requests interface without allocation.
type requestView struct{ b *Bus }

func (v *requestView) NumMasters() int { return len(v.b.masters) }

func (v *requestView) Pending(i int) bool { return v.b.masterPending(i) }

// Mask serves the request map cached by the cycle loop when it is fresh
// (the common case during arbitration) and recomputes otherwise.
func (v *requestView) Mask() core.Bitset {
	if v.b.maskFor == v.b.cycle {
		return v.b.mask
	}
	return v.b.requestMask()
}

func (v *requestView) PendingWords(i int) int {
	if !v.b.masterPending(i) {
		return 0
	}
	m := v.b.masters[i]
	if m.outstanding != nil {
		return m.outstanding.remaining
	}
	return m.queue.front().remaining
}

func (v *requestView) Tickets(i int) uint64 { return v.b.masters[i].tickets }
