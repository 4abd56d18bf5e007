// Package topology composes multiple shared buses into hierarchical
// communication architectures connected by bridges (paper §2: "When the
// topology consists of multiple channels, bridges are employed to
// interconnect the necessary channels", §2.3 hierarchical bus
// architectures). The LOTTERYBUS architecture "does not presume any
// fixed topology of communication channels" (§4.1); this package lets
// the lottery — or any other arbiter — run per channel.
//
// A System advances its buses on an event-ordered schedule that is
// bit-identical to lock-step execution: each bus runs long stretches on
// its own engine (fast-forward included) and stops only at the cycles
// where a bridge hands it work. Buses must share no state other than
// through bridges — no generator, arbiter, fault model or random
// source may be attached to two buses.
package topology

import (
	"fmt"

	"lotterybus/internal/bus"
)

// System is a set of buses joined by bridges, advanced on an
// event-ordered schedule that is bit-identical to lock-step (see Run).
type System struct {
	buses   []*bus.Bus
	names   []string
	bridges []*Bridge
	// foreign records a completion hook Connect found on a bus no bridge
	// had hooked yet: the event schedule cannot order what such a hook
	// observes across buses, so Run keeps the system on lock-step.
	foreign bool
	cycle   int64
}

// NewSystem returns an empty multi-bus system.
func NewSystem() *System { return &System{} }

// AddBus registers a bus under a name and returns its index.
func (s *System) AddBus(name string, b *bus.Bus) int {
	s.buses = append(s.buses, b)
	s.names = append(s.names, name)
	return len(s.buses) - 1
}

// Bus returns the i-th bus.
func (s *System) Bus(i int) *bus.Bus { return s.buses[i] }

// BusName returns the i-th bus's registered name.
func (s *System) BusName(i int) string { return s.names[i] }

// NumBuses returns the bus count.
func (s *System) NumBuses() int { return len(s.buses) }

// Bridges returns every bridge installed by Connect, in installation
// order, so audits can walk the fabric's word ledgers.
func (s *System) Bridges() []*Bridge { return s.bridges }

// Bridge forwards transactions completed against a designated slave on
// the source bus onto a master of the destination bus, after a fixed
// forwarding delay — a store-and-forward bridge with an internal FIFO.
type Bridge struct {
	name string

	src       *bus.Bus
	srcSlave  int
	dst       *bus.Bus
	dstMaster int
	dstSlave  int
	delay     int64
	fifoCap   int
	// from and to are the source and destination bus indices.
	from, to int

	// log holds source-bus completions against srcSlave (at = the
	// completion cycle) that admit has not yet accepted or dropped.
	log xferQueue
	// waiting holds admitted transactions serving their forwarding delay
	// (at = the cycle the delay elapses) before injection downstream.
	waiting xferQueue
	// inFlight tracks messages currently queued or transferring on the
	// destination bus, in FIFO order (at is unused there).
	inFlight xferQueue

	forwarded   int64
	dropped     int64
	e2eLatency  int64
	e2eMessages int64

	// Word-conservation ledger: every word accepted into the bridge FIFO
	// is eventually injected downstream, still waiting, or dropped at
	// injection — wordsIn == wordsOut + wordsWaiting + wordsDropped at
	// every cycle boundary. check.AuditSystem re-proves this per bridge.
	wordsIn      int64 // accepted from the source bus
	wordsOut     int64 // injected into the destination bus
	wordsWaiting int64 // accepted, still serving the forwarding delay
	wordsDropped int64 // accepted, then refused by the destination queue
}

type pendingXfer struct {
	at      int64 // completion cycle (log) or ready cycle (waiting)
	words   int
	arrival int64 // original arrival at the source-bus master
}

// xferQueue is a FIFO of bridge transfers over a reused backing array:
// pop advances a head index instead of re-slicing, the array rewinds
// when the queue empties, and push compacts it in place before growing
// once at least half of it is consumed — so a bridge in steady state
// allocates nothing.
type xferQueue struct {
	buf  []pendingXfer
	head int
}

func (q *xferQueue) len() int { return len(q.buf) - q.head }

func (q *xferQueue) front() pendingXfer { return q.buf[q.head] }

func (q *xferQueue) push(p pendingXfer) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

func (q *xferQueue) pop() pendingXfer {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return p
}

// BridgeConfig describes one bridge.
type BridgeConfig struct {
	// Name labels the bridge.
	Name string
	// SrcSlave is the slave index on the source bus that addresses the
	// bridge.
	SrcSlave int
	// DstMaster is the bridge's master index on the destination bus
	// (add a nil-generator master for it). Each destination master is
	// fed by at most one bridge.
	DstMaster int
	// DstSlave is the slave the forwarded transaction targets on the
	// destination bus.
	DstSlave int
	// Delay is the store-and-forward latency in cycles (>= 0).
	Delay int64
	// FifoCap bounds the bridge FIFO in messages (>= 0); 0 selects 64.
	FifoCap int
}

// Connect installs a bridge from src to dst. The destination master must
// already exist on dst (with no generator of its own) and must not be
// fed by another bridge.
func (s *System) Connect(src, dst int, cfg BridgeConfig) (*Bridge, error) {
	if src < 0 || src >= len(s.buses) || dst < 0 || dst >= len(s.buses) {
		return nil, fmt.Errorf("topology: bus index out of range")
	}
	if src == dst {
		return nil, fmt.Errorf("topology: bridge must connect distinct buses")
	}
	sb, db := s.buses[src], s.buses[dst]
	if cfg.DstMaster < 0 || cfg.DstMaster >= db.NumMasters() {
		return nil, fmt.Errorf("topology: bridge master %d not on destination bus", cfg.DstMaster)
	}
	if cfg.SrcSlave < 0 || cfg.SrcSlave >= sb.NumSlaves() {
		return nil, fmt.Errorf("topology: bridge slave %d not on source bus", cfg.SrcSlave)
	}
	if cfg.DstSlave < 0 || cfg.DstSlave >= db.NumSlaves() {
		return nil, fmt.Errorf("topology: bridge target slave %d not on destination bus", cfg.DstSlave)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("topology: negative bridge delay")
	}
	if cfg.FifoCap < 0 {
		return nil, fmt.Errorf("topology: negative bridge FifoCap %d", cfg.FifoCap)
	}
	srcHooked, dstHooked := false, false
	for _, other := range s.bridges {
		// Two bridges on one master would both pop their in-flight
		// queues on each of its completions.
		if other.to == dst && other.dstMaster == cfg.DstMaster {
			return nil, fmt.Errorf("topology: destination master %d on bus %s already fed by %s",
				cfg.DstMaster, s.names[dst], other.name)
		}
		srcHooked = srcHooked || other.from == src || other.to == src
		dstHooked = dstHooked || other.from == dst || other.to == dst
	}
	if (sb.OnMessageComplete != nil && !srcHooked) || (db.OnMessageComplete != nil && !dstHooked) {
		s.foreign = true
	}
	if cfg.FifoCap == 0 {
		cfg.FifoCap = 64
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("bridge-%s-%s", s.names[src], s.names[dst])
	}
	br := &Bridge{
		name:      name,
		src:       sb,
		srcSlave:  cfg.SrcSlave,
		dst:       db,
		dstMaster: cfg.DstMaster,
		dstSlave:  cfg.DstSlave,
		delay:     cfg.Delay,
		fifoCap:   cfg.FifoCap,
		from:      src,
		to:        dst,
	}
	s.bridges = append(s.bridges, br)

	// The source hook only logs; admit decides drop or accept at the
	// point of the schedule where lock-step would have.
	prevSrcHook := sb.OnMessageComplete
	sb.OnMessageComplete = func(master, words, slave int, arrival, completion int64) {
		if prevSrcHook != nil {
			prevSrcHook(master, words, slave, arrival, completion)
		}
		if slave == br.srcSlave {
			br.log.push(pendingXfer{at: completion, words: words, arrival: arrival})
		}
	}

	prevDstHook := db.OnMessageComplete
	db.OnMessageComplete = func(master, words, slave int, arrival, completion int64) {
		if prevDstHook != nil {
			prevDstHook(master, words, slave, arrival, completion)
		}
		if master != br.dstMaster || br.inFlight.len() == 0 {
			return
		}
		p := br.inFlight.pop()
		br.e2eLatency += completion - p.arrival + 1
		br.e2eMessages++
		br.forwarded++
	}
	return br, nil
}

// admit settles every logged source completion up to cycle through:
// with the FIFO (waiting plus in flight) full the message is dropped,
// otherwise it starts serving the forwarding delay.
func (b *Bridge) admit(through int64) {
	for b.log.len() > 0 && b.log.front().at <= through {
		p := b.log.pop()
		if b.waiting.len()+b.inFlight.len() >= b.fifoCap {
			b.dropped++
			continue
		}
		p.at += b.delay
		b.waiting.push(p)
		b.wordsIn += int64(p.words)
		b.wordsWaiting += int64(p.words)
	}
}

// drain injects transactions whose forwarding delay has elapsed.
func (b *Bridge) drain(cycle int64) {
	for b.waiting.len() > 0 && b.waiting.front().at <= cycle {
		p := b.waiting.pop()
		b.wordsWaiting -= int64(p.words)
		if !b.dst.Inject(b.dstMaster, p.words, b.dstSlave) {
			b.dropped++
			b.wordsDropped += int64(p.words)
			continue
		}
		b.wordsOut += int64(p.words)
		b.inFlight.push(p)
	}
}

// sync brings the bridge up to cycle t of its destination bus, which
// has run every cycle before t, in lock-step order: completions logged
// at t-1 are admitted (a higher-index source ran cycle t-1 after the
// destination did), then transfers due at t drain, then completions at
// t from a lower-index source are admitted (it ran cycle t first). It
// returns the next cycle after t at which the bridge has work, or
// until when that is later.
func (b *Bridge) sync(t, until int64) int64 {
	b.admit(t - 1)
	b.drain(t)
	if b.from < b.to {
		b.admit(t)
	}
	next := until
	if b.waiting.len() > 0 {
		// A delay-0 transfer admitted just now drains at t+1.
		next = min(next, max(b.waiting.front().at, t+1))
	}
	if b.log.len() > 0 {
		at := b.log.front().at
		if b.from > b.to {
			at++
		}
		next = min(next, at)
	}
	return next
}

// Name returns the bridge label.
func (b *Bridge) Name() string { return b.name }

// Forwarded returns the number of messages fully delivered downstream.
func (b *Bridge) Forwarded() int64 { return b.forwarded }

// Dropped returns messages lost to bridge FIFO overflow.
func (b *Bridge) Dropped() int64 { return b.dropped }

// AvgEndToEndLatency returns the mean cycles from the message's arrival
// at its source-bus master to its completion on the destination bus.
func (b *Bridge) AvgEndToEndLatency() float64 {
	if b.e2eMessages == 0 {
		return 0
	}
	return float64(b.e2eLatency) / float64(b.e2eMessages)
}

// Queued returns the bridge FIFO occupancy (waiting plus in flight).
func (b *Bridge) Queued() int { return b.waiting.len() + b.inFlight.len() }

// BridgeStats is a snapshot of every counter a bridge accumulates.
// Before it existed only Forwarded/Dropped/AvgEndToEndLatency were
// reachable and the raw end-to-end sums were private, so reports and
// observability could not aggregate bridge traffic across replicas.
type BridgeStats struct {
	// Forwarded counts messages fully delivered on the destination bus.
	Forwarded int64
	// Dropped counts messages lost to FIFO overflow — at the source-bus
	// completion hook when the FIFO is full, or at injection when the
	// destination master's queue refuses the message.
	Dropped int64
	// E2EMessages and E2ELatencySum are the raw accumulators behind
	// AvgEndToEndLatency (sum of completion − source arrival + 1, in
	// cycles); keeping them raw lets replicas merge before dividing.
	E2EMessages   int64
	E2ELatencySum int64
	// Queued is the FIFO occupancy (waiting plus in flight) at snapshot
	// time.
	Queued int
	// WordsIn counts words accepted into the bridge FIFO from the
	// source bus; WordsOut counts words injected into the destination
	// bus; WordsWaiting counts accepted words still serving the
	// forwarding delay; WordsDropped counts accepted words the
	// destination queue later refused. Conservation holds at every cycle
	// boundary: WordsIn == WordsOut + WordsWaiting + WordsDropped.
	WordsIn      int64
	WordsOut     int64
	WordsWaiting int64
	WordsDropped int64
}

// Stats returns a snapshot of the bridge's counters.
func (b *Bridge) Stats() BridgeStats {
	return BridgeStats{
		Forwarded:     b.forwarded,
		Dropped:       b.dropped,
		E2EMessages:   b.e2eMessages,
		E2ELatencySum: b.e2eLatency,
		Queued:        b.Queued(),
		WordsIn:       b.wordsIn,
		WordsOut:      b.wordsOut,
		WordsWaiting:  b.wordsWaiting,
		WordsDropped:  b.wordsDropped,
	}
}

// CheckConservation verifies the bridge's word ledger: every word
// accepted from the source bus is injected downstream, still waiting,
// or dropped at injection. A nonzero residue means the bridge is
// inventing or losing words between segments.
func (b *Bridge) CheckConservation() error {
	if residue := b.wordsIn - b.wordsOut - b.wordsWaiting - b.wordsDropped; residue != 0 {
		return fmt.Errorf("topology: bridge %s word ledger off by %d (in %d, out %d, waiting %d, dropped %d)",
			b.name, residue, b.wordsIn, b.wordsOut, b.wordsWaiting, b.wordsDropped)
	}
	return nil
}

// window bounds how far a bus runs ahead of the buses downstream of it,
// and so the length of every bridge's completion log.
const window = 1024

// Run advances every bus n cycles; each must stand at Cycle().
//
// The schedule is event-ordered and bit-identical to lock-step
// (runLockStep). Windows of up to `window` cycles run the buses in
// topological order of the bridge graph, so every source bus has logged
// its completions before the bus downstream runs. Each bus then
// advances in long Run calls that stop only at the cycles where an
// incoming bridge admits a logged completion or drains into it
// (Bridge.sync). Systems the event order cannot reproduce stay on
// lock-step: a cyclic bridge graph, an OnCycle or OnOwner hook on any
// bus, or a completion hook installed on a bus before Connect.
func (s *System) Run(n int64) error {
	if err := s.runnable(); err != nil {
		return err
	}
	order := s.eventOrder()
	if order == nil {
		return s.runLockStep(n)
	}
	end := s.cycle + n
	for s.cycle < end {
		until := min(end, s.cycle+window)
		for _, i := range order {
			if err := s.runSegment(i, until); err != nil {
				return err
			}
		}
		s.cycle = until
	}
	return nil
}

// runnable rejects a system Run cannot advance consistently.
func (s *System) runnable() error {
	if len(s.buses) == 0 {
		return fmt.Errorf("topology: no buses")
	}
	for i, b := range s.buses {
		if b.Cycle() != s.cycle {
			return fmt.Errorf("topology: bus %s at cycle %d, system at cycle %d", s.names[i], b.Cycle(), s.cycle)
		}
	}
	return nil
}

// eventOrder returns the bus indices in topological order of the bridge
// graph (lowest index first among ready buses), or nil when the system
// must run lock-step.
func (s *System) eventOrder() []int {
	if s.foreign {
		return nil
	}
	for _, b := range s.buses {
		if b.OnCycle != nil || b.OnOwner != nil {
			return nil
		}
	}
	indeg := make([]int, len(s.buses))
	for _, br := range s.bridges {
		indeg[br.to]++
	}
	order := make([]int, 0, len(s.buses))
	for len(order) < len(s.buses) {
		ready := -1
		for i, d := range indeg {
			if d == 0 {
				ready = i
				break
			}
		}
		if ready < 0 {
			return nil // a bridge cycle
		}
		indeg[ready] = -1
		order = append(order, ready)
		for _, br := range s.bridges {
			if br.from == ready {
				indeg[br.to]--
			}
		}
	}
	return order
}

// runSegment advances bus i to cycle until, stopping wherever an
// incoming bridge has work. On return every incoming log is empty, as
// after a lock-step cycle: completions a higher-index source logged at
// until-1 are due before the drains at until, so they are admitted now.
func (s *System) runSegment(i int, until int64) error {
	b := s.buses[i]
	for t := b.Cycle(); t < until; {
		next := until
		for _, br := range s.bridges {
			if br.to == i {
				next = min(next, br.sync(t, until))
			}
		}
		if err := b.Run(next - t); err != nil {
			return fmt.Errorf("topology: bus %s: %w", s.names[i], err)
		}
		t = next
	}
	for _, br := range s.bridges {
		if br.to == i {
			br.admit(until - 1)
		}
	}
	return nil
}

// runLockStep is the reference schedule, kept as the oracle for Run and
// as its fallback: every cycle, each bridge drains in installation
// order, then each bus runs one cycle in index order and the bridges it
// sources admit that cycle's completions.
func (s *System) runLockStep(n int64) error {
	for k := int64(0); k < n; k++ {
		for _, br := range s.bridges {
			br.drain(s.cycle)
		}
		for i, b := range s.buses {
			if err := b.Run(1); err != nil {
				return fmt.Errorf("topology: bus %s: %w", s.names[i], err)
			}
			for _, br := range s.bridges {
				if br.from == i {
					br.admit(s.cycle)
				}
			}
		}
		s.cycle++
	}
	return nil
}

// Cycle returns the cycle every bus stands at between Runs.
func (s *System) Cycle() int64 { return s.cycle }
