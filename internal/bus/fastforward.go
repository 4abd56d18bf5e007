// Fast-forward engine: event-driven execution of the cycle-accurate bus
// model. The naive loop in bus.go executes every simulated cycle even
// when nothing decision-relevant can happen — idle gaps waiting for the
// next traffic arrival, split-transaction latency, slave wait states,
// and the interior of uninterrupted bursts. This file leaps over those
// provably-inert stretches in O(1) per event while reproducing the naive
// loop's observable state bit for bit:
//
//   - every cycle on which an arbiter could be consulted (bus idle with a
//     non-empty request map) is still executed individually, so arbiter
//     PRNG streams and internal state (round-robin pointers, TDMA wheel
//     reclamation, WRR deficits) advance identically;
//   - every traffic arrival is enqueued at its exact cycle, so queue
//     occupancy, drops and message arrival timestamps are identical;
//   - batched word transfers update the stats.Collector with the same
//     totals, and message start/completion events fire at the same cycles
//     with the same arguments, so latency sums and histograms are
//     identical (including the order-sensitive floating-point Welford
//     accumulators).
//
// Cost model: an executed cycle costs O(due generators + requesters), not
// O(masters). Two structures make that so, both kept by this engine:
//
//   - the arrival calendar, a binary min-heap of every generator's next
//     arrival keyed by (cycle, master index): phase 1 ticks only the
//     masters due this cycle, in index order, and the batch limit and
//     dead-gap target read the heap top;
//   - the incremental request map, a "queue non-empty" bitset and a
//     "split outstanding" bitset updated where this engine pushes or pops
//     a queue and opens or closes a split (and by Inject, which may run
//     between Runs). The request map is the queued bits plus the
//     outstanding masters whose response is ready.
//
// Both are rebuilt, in O(masters), on the first fast Run, after
// AddMaster and after a naive-loop Run; otherwise they carry over from
// one Run to the next, so Run entry is O(1). The naive loop keeps its
// per-master masterPending scan and maintains neither structure: it is
// the oracle the fast path is tested against, and it pays nothing for
// it.
//
// Eligibility (checked per Run call by fastForwardable): no OnCycle /
// OnOwner hook, no active Preemptor, and every attached generator
// implements Scheduler. Anything else falls back to the naive loop —
// correctness never depends on the fast path. OnMessageComplete does
// not force the naive loop: batched bursts fire it with the same
// arguments, in the same order, as the per-cycle loop does.
package bus

import (
	"math"
	"math/bits"

	"lotterybus/internal/core"
	"lotterybus/internal/stats"
)

// Scheduler mirrors traffic.Scheduler (as Generator mirrors the Tick
// contract): an optional generator extension that predicts arrival
// cycles, letting the bus skip cycles on which no message can arrive.
// NextArrival(cycle) returns the earliest cycle >= cycle at which the
// generator's Tick may emit, or math.MaxInt64 for "never". Its answer
// must depend only on the generator's own state, which only Tick
// advances: the bus caches it in the arrival calendar until it next
// ticks the generator, and it never calls Tick off a predicted arrival,
// so such a Tick must be a no-op.
type Scheduler interface {
	NextArrival(cycle int64) int64
}

// never is the no-arrival sentinel (matches traffic.Never).
const never = int64(math.MaxInt64)

// fastCycleCheck, when non-nil, is called on every cycle the fast path
// executes, after traffic arrival. Tests use it to compare the
// incremental request map against the naive scan.
var fastCycleCheck func(b *Bus)

// fastForwardable reports whether this Run may use the fast-forward
// engine: nothing observes individual cycles and every generator can
// predict its arrivals.
func (b *Bus) fastForwardable() bool {
	if b.OnCycle != nil || b.OnOwner != nil {
		return false
	}
	if b.cfg.Preemption {
		if _, ok := b.arb.(Preemptor); ok {
			return false
		}
	}
	// An armed fault model, the watchdog and the starvation detector all
	// observe (or perturb) individual cycles; disarmed/absent they leave
	// the fast path untouched.
	if b.fault != nil && b.fault.Armed() {
		return false
	}
	if b.cfg.SplitTimeout > 0 || b.cfg.StarvationThreshold > 0 {
		return false
	}
	return b.unscheduled == 0 // counted once, by AddMaster
}

// calEntry is one arrival-calendar slot: master m's next arrival cycle.
type calEntry struct {
	at int64
	m  int
}

func (e calEntry) before(o calEntry) bool {
	return e.at < o.at || e.at == o.at && e.m < o.m
}

// siftDown restores the heap order below slot i.
func siftDown(cal []calEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(cal) {
			return
		}
		if r := c + 1; r < len(cal) && cal[r].before(cal[c]) {
			c = r
		}
		if !cal[c].before(cal[i]) {
			return
		}
		cal[i], cal[c] = cal[c], cal[i]
		i = c
	}
}

// rebuildFast rebuilds the arrival calendar and the incremental request
// map from the masters' state at b.cycle. It returns the cycle until
// which a retry backoff left by a faulted Run keeps some master off the
// request lines; the request map cannot express a backoff, so the
// caller steps those cycles on the naive loop first.
func (b *Bus) rebuildFast() (backoffUntil int64) {
	if cap(b.cal) < len(b.masters) {
		b.cal = make([]calEntry, 0, len(b.masters))
	}
	b.cal = b.cal[:0]
	b.queued, b.splits = core.Bitset{}, core.Bitset{}
	for i, m := range b.masters {
		if m.gen != nil { // generator-less masters never produce arrivals
			b.cal = append(b.cal, calEntry{m.gen.(Scheduler).NextArrival(b.cycle), i})
		}
		b.syncReq(i)
		backoffUntil = max(backoffUntil, m.backoffUntil)
	}
	for i := len(b.cal)/2 - 1; i >= 0; i-- {
		siftDown(b.cal, i)
	}
	b.fastLive = true
	return backoffUntil
}

// syncReq refreshes master i's bits in the incremental request map.
func (b *Bus) syncReq(i int) {
	m := b.masters[i]
	if m.queue.len() > 0 {
		b.queued.Set(i)
	} else {
		b.queued.Clear(i)
	}
	if m.outstanding != nil {
		b.splits.Set(i)
	} else {
		b.splits.Clear(i)
	}
}

// nextArrival returns the earliest cycle at which any generator may emit
// a message: the calendar top.
func (b *Bus) nextArrival() int64 {
	if len(b.cal) == 0 {
		return never
	}
	return b.cal[0].at
}

// readyWord returns word w of the request map: masters with a queued
// message and no outstanding split, plus the outstanding masters whose
// response is ready (a ready split response takes precedence, matching
// masterPending).
func (b *Bus) readyWord(w int) uint64 {
	pend := b.queued[w] &^ b.splits[w]
	for s := b.splits[w]; s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(s)
		if b.cycle >= b.masters[w<<6+i].respReady {
			pend |= 1 << uint(i)
		}
	}
	return pend
}

// fastMask returns the request map at b.cycle from the incremental
// bitsets; narrow buses only ever use word 0.
func (b *Bus) fastMask() core.Bitset {
	var mask core.Bitset
	for w := 0; w<<6 < len(b.masters); w++ {
		mask[w] = b.readyWord(w)
	}
	return mask
}

// nextSplitReady returns the earliest cycle at which an outstanding
// split transaction's response becomes ready (asserting its master's
// request line), or never.
func (b *Bus) nextSplitReady() int64 {
	next := never
	for w, word := range b.splits {
		for ; word != 0; word &= word - 1 {
			next = min(next, b.masters[w<<6+bits.TrailingZeros64(word)].respReady)
		}
	}
	return next
}

// runFast executes n bus cycles with event-driven fast-forwarding. The
// per-cycle portion below is the naive loop body minus the hook and
// pre-emption branches (both excluded by fastForwardable); after each
// executed cycle it leaps to the next event.
func (b *Bus) runFast(n int64, col *stats.Collector) error {
	wide := len(b.masters) > 64
	end := b.cycle + n
	for b.cycle < end {
		cycle := b.cycle

		// Phase 1: traffic arrival. Only the masters the calendar says
		// are due tick, in index order; for every other master the naive
		// loop's Tick is a no-op that draws no PRNG.
		for len(b.cal) > 0 && b.cal[0].at <= cycle {
			i := b.cal[0].m
			m := b.masters[i]
			m.gen.Tick(cycle, m.queue.len(), m.emit)
			if m.queue.len() > 0 {
				b.queued.Set(i)
			}
			b.cal[0].at = m.gen.(Scheduler).NextArrival(cycle + 1)
			siftDown(b.cal, 0)
		}
		if fastCycleCheck != nil {
			fastCycleCheck(b)
		}

		// Phase 2: arbitration when idle.
		if b.cur == nil {
			if !wide {
				if w := b.readyWord(0); w != 0 {
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
			} else if mask := b.fastMask(); mask.Any() {
				b.mask, b.maskFor = mask, cycle
				if g, ok := b.arb.Arbitrate(cycle, &b.reqView); ok {
					if err := b.startBurst(g, col); err != nil {
						return err
					}
				}
			}
		}

		// Phase 3: word transfer. A beat that ends the burst may pop the
		// queue or open or close a split.
		if cur := b.cur; cur != nil {
			if cur.waitLeft > 0 {
				cur.waitLeft--
			} else if b.transferWord(col); b.cur == nil {
				b.syncReq(cur.master)
			}
		}
		col.AdvanceCycles(1)
		b.cycle++

		// Fast-forward to the next event.
		if b.cur != nil {
			// Mid-burst: only a traffic arrival needs an executed cycle
			// before the burst's own bookkeeping; batch up to it.
			if limit := min(end, b.nextArrival()); limit > b.cycle {
				from := b.cycle
				b.batchBurst(limit, col)
				b.ffCycles += b.cycle - from
			}
		} else if !wide && b.readyWord(0) == 0 || wide && b.fastMask().None() {
			// Dead gap: bus idle, no requests. Nothing can happen until
			// the next arrival or a split response becomes ready.
			target := min(end, b.nextArrival(), b.nextSplitReady())
			if target > b.cycle {
				col.AdvanceCycles(target - b.cycle)
				b.ffCycles += target - b.cycle
				b.cycle = target
			}
		}
	}
	return nil
}

// batchBurst advances the in-progress burst to limit (exclusive) in one
// step, replaying exactly what the naive loop's phase 3 would do cycle
// by cycle. Preconditions: b.cur != nil, b.cycle < limit, and no traffic
// arrives in [b.cycle, limit).
func (b *Bus) batchBurst(limit int64, col *stats.Collector) {
	cur := b.cur
	m := b.masters[cur.master]
	var msg *message
	if cur.fromOutstanding {
		msg = m.outstanding
	} else {
		msg = m.queue.front()
	}
	start := b.cycle

	// The window may be pure stall (arbitration latency / wait states).
	if int64(cur.waitLeft) >= limit-start {
		cur.waitLeft -= int(limit - start)
		col.AdvanceCycles(limit - start)
		b.cycle = limit
		return
	}
	first := start + int64(cur.waitLeft) // cycle the next beat moves
	cur.waitLeft = 0

	if !msg.started {
		msg.started = true
		col.MessageStarted(cur.master, msg.arrival, first)
	}

	// Split request phase: a single address beat at first, then the bus
	// is released while the slave processes.
	if cur.control {
		col.ControlCycle(cur.master)
		m.outBuf = *msg
		m.outstanding = &m.outBuf
		m.respReady = first + int64(b.slaves[msg.slave].splitLatency)
		m.queue.pop()
		b.syncReq(cur.master)
		b.cur = nil
		col.AdvanceCycles(first + 1 - start)
		b.cycle = first + 1
		return
	}

	// Data beats move every (1 + waitStates) cycles starting at first.
	waitStates := 0
	if len(b.slaves) > 0 {
		waitStates = b.slaves[msg.slave].waitStates
	}
	stride := int64(waitStates) + 1
	left := int64(cur.words - cur.done)
	if int64(msg.remaining) < left {
		left = int64(msg.remaining)
	}
	k := (limit - first + stride - 1) / stride // beats before limit
	if k > left {
		k = left
	}
	// k >= 1: first < limit and left >= 1 for any live burst.
	col.WordsTransferred(cur.master, k)
	if len(b.slaves) > 0 {
		b.slaves[msg.slave].words += k
	}
	msg.remaining -= int(k)
	cur.done += int(k)
	last := first + (k-1)*stride // cycle of the batch's final beat

	if msg.remaining == 0 {
		col.MessageCompleted(cur.master, msg.words, msg.arrival, last)
		if b.OnMessageComplete != nil {
			b.OnMessageComplete(cur.master, msg.words, msg.slave, msg.arrival, last)
		}
		if cur.fromOutstanding {
			m.outstanding = nil
		} else {
			m.queue.pop()
		}
		m.retries = 0
		b.syncReq(cur.master)
		b.cur = nil
		col.AdvanceCycles(last + 1 - start)
		b.cycle = last + 1
		return
	}
	if cur.done == cur.words {
		// Burst budget exhausted mid-message: the master re-contends.
		b.cur = nil
		col.AdvanceCycles(last + 1 - start)
		b.cycle = last + 1
		return
	}
	// Burst continues beyond limit. The naive loop would have set
	// waitLeft to the slave's wait states after the beat at last and
	// decremented it once per cycle since; limit <= last + stride
	// guarantees the remainder is non-negative.
	cur.waitLeft = waitStates - int(limit-last-1)
	col.AdvanceCycles(limit - start)
	b.cycle = limit
}
