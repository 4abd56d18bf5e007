// Package core implements the LOTTERYBUS arbitration algorithm — the
// central contribution of Lahiri, Raghunathan and Lakshminarayana,
// "LOTTERYBUS: A New High-Performance Communication Architecture for
// System-on-Chip Designs", DAC 2001.
//
// A lottery manager holds, for each bus master C_1..C_n, a number of
// lottery tickets t_1..t_n. Given the set of currently pending requests
// r_1..r_n (boolean), an arbitration draws a uniformly random "winning
// ticket" in [0, Σ r_j·t_j) and grants the bus to the master whose ticket
// range contains it: the probability of granting C_i is
//
//	P(C_i) = r_i·t_i / Σ_j r_j·t_j .
//
// Two managers are provided, mirroring the paper's two architectures:
//
//   - StaticLottery (§4.3): ticket holdings are fixed at construction.
//     All 2^n partial-sum ranges are precomputed into a lookup table and
//     the ticket holdings are scaled so the grand total is a power of
//     two, enabling an LFSR-based random number generator.
//
//   - DynamicLottery (§4.4): ticket holdings are inputs to every draw.
//     Partial sums are formed on the fly (bitwise-AND plus adder tree in
//     hardware) and the random number is reduced into the live range
//     with modulo arithmetic.
//
// The package is independent of the bus model: it can arbitrate anything
// (package arb adapts it to the bus simulator, and it is equally usable
// as a proportional-share scheduler in the style of Waldspurger-Weihl
// lottery scheduling, the paper's reference [16]).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"lotterybus/internal/prng"
)

// lutMaxMasters bounds the request-map lookup table (2^n entries of n
// partial sums each). Beyond this the managers walk the requesters'
// set bits on every draw, which is behaviourally identical.
const lutMaxMasters = 12

// SlackPolicy selects how a lottery manager maps a raw random word onto
// the live ticket range [0, Σ r_j·t_j), whose size varies with the
// requesting subset and is generally not a power of two.
type SlackPolicy int

const (
	// PolicyExact draws an exactly uniform value in [0, total) using
	// unbiased rejection sampling on the random source, over the
	// original (unscaled) ticket holdings. This is the behavioural
	// reference (default): grant probabilities equal the configured
	// ticket ratios exactly, with no power-of-two scaling distortion.
	PolicyExact SlackPolicy = iota

	// PolicyModulo reduces a 32-bit random word modulo the live total of
	// the original (unscaled) holdings, exactly as the dynamic lottery
	// manager's modulo hardware does (paper Fig. 10). It carries the
	// usual modulo bias of at most total/2^32; totals at or above 2^24
	// fall back to exact sampling so the bias can never exceed 2^-8.
	PolicyModulo

	// PolicyRedraw compares the raw word against the partial sums and
	// issues no grant when the word falls above the live total; the
	// manager retries on the next arbitration. This matches a static
	// manager built from only a LUT, comparators and a priority selector
	// (paper Fig. 9) with no modulo stage. Proportionality among
	// requesters is exact; the cost is an occasional idle cycle.
	PolicyRedraw

	// PolicyAbsorbLast assigns the slack above the live total to the
	// highest-indexed requester (its comparator threshold is lifted to
	// the full RNG range). No cycles are lost but the last requester is
	// favoured by up to slack/2^width.
	PolicyAbsorbLast
)

// String returns the policy name.
func (p SlackPolicy) String() string {
	switch p {
	case PolicyExact:
		return "exact"
	case PolicyModulo:
		return "modulo"
	case PolicyRedraw:
		return "redraw"
	case PolicyAbsorbLast:
		return "absorb-last"
	default:
		return fmt.Sprintf("SlackPolicy(%d)", int(p))
	}
}

// NoWinner is returned by Draw when no grant is issued: either no
// requests are pending, or a PolicyRedraw draw fell into the slack zone.
const NoWinner = -1

// StaticLottery is the statically-configured lottery manager. Ticket
// holdings are fixed; the ranges of every request subset are precomputed.
type StaticLottery struct {
	orig   []uint64 // holdings as configured
	scaled []uint64 // holdings scaled so the grand total is 1<<width
	width  uint     // RNG word width; 1<<width == Σ scaled
	policy SlackPolicy
	src    prng.Source

	n int
	// Two lookup tables are kept: the scaled table mirrors the hardware
	// LUT (paper Fig. 9) and serves the hardware-style policies; the
	// original-holdings table serves PolicyExact, which by definition is
	// free of scaling distortion.
	scaledLUT rangeLUT
	origLUT   rangeLUT

	draws   uint64
	redraws uint64
}

// rangeLUT serves a draw's live total Σ r_j·t_j and its winner. Up to
// lutMaxMasters masters it caches, per request mask, the running partial
// sums and the live total — the hardware lookup table. Beyond that it
// walks only the requesters' set bits (see requesterTotal and
// requesterWinner), so a draw costs one step per requester, not one per
// master.
type rangeLUT struct {
	holdings []uint64
	totals   []uint64   // nil when beyond lutMaxMasters
	psums    [][]uint64 // nil when beyond lutMaxMasters
}

func newRangeLUT(holdings []uint64, buildTable bool) rangeLUT {
	n := len(holdings)
	l := rangeLUT{holdings: holdings}
	if !buildTable {
		return l
	}
	size := 1 << n
	l.totals = make([]uint64, size)
	l.psums = make([][]uint64, size)
	flat := make([]uint64, size*n)
	for mask := 0; mask < size; mask++ {
		ps := flat[mask*n : (mask+1)*n]
		l.totals[mask] = prefixSums(holdings, uint64(mask), ps)
		l.psums[mask] = ps
	}
	return l
}

// prefixSums fills ps with the running partial sums Σ_{j<=i} r_j·t_j of
// holdings under mask and returns the live total.
func prefixSums(holdings []uint64, mask uint64, ps []uint64) uint64 {
	var acc uint64
	for i, h := range holdings {
		if mask>>uint(i)&1 == 1 {
			acc += h
		}
		ps[i] = acc
	}
	return acc
}

// row returns the lookup-table row of a request mask trimmed to n bits
// and its live total; beyond the table the row is nil and the total is
// walked from the requesters.
func (l *rangeLUT) row(mask uint64) ([]uint64, uint64) {
	if l.psums != nil {
		return l.psums[mask], l.totals[mask]
	}
	return nil, requesterTotal(l.holdings, 0, mask)
}

// requesterTotal sums holdings over the set bits of mask, bit i standing
// for holdings[base+i]: the bitwise-AND stage and adder tree of the
// hardware, one step per requester.
func requesterTotal(holdings []uint64, base int, mask uint64) uint64 {
	var acc uint64
	for ; mask != 0; mask &= mask - 1 {
		acc += holdings[base+bits.TrailingZeros64(mask)]
	}
	return acc
}

// requesterWinner walks the set bits of mask (bit i standing for
// holdings[base+i]) and returns the first requester whose range contains
// r, or NoWinner together with r less the walked holdings, so a wide
// request map continues the walk in its next word. This is selectWinner
// over the prefix sums without forming them: the first index whose
// partial sum exceeds r is always a requester, because a non-requester's
// partial sum equals its predecessor's. Same total, same winner, same
// PRNG consumption.
func requesterWinner(holdings []uint64, base int, mask, r uint64) (int, uint64) {
	for ; mask != 0; mask &= mask - 1 {
		i := base + bits.TrailingZeros64(mask)
		if r < holdings[i] {
			return i, 0
		}
		r -= holdings[i]
	}
	return NoWinner, r
}

// setTotal is requesterTotal over a wide request map.
func setTotal(holdings []uint64, set Bitset) uint64 {
	var acc uint64
	for w, word := range set {
		acc += requesterTotal(holdings, w<<6, word)
	}
	return acc
}

// setWinner is requesterWinner over a wide request map.
func setWinner(holdings []uint64, set Bitset, r uint64) int {
	for w, word := range set {
		var win int
		if win, r = requesterWinner(holdings, w<<6, word, r); win != NoWinner {
			return win
		}
	}
	return NoWinner
}

// StaticConfig parameterizes NewStaticLottery.
type StaticConfig struct {
	// Tickets holds one positive ticket count per master.
	Tickets []uint64
	// Source supplies random words. Required.
	Source prng.Source
	// Policy selects the slack policy; default PolicyExact.
	Policy SlackPolicy
	// Width, if nonzero, fixes the RNG width (ticket holdings are scaled
	// so they sum to exactly 1<<Width). If zero, the smallest width with
	// 1<<width >= ceil(1.5 * total) is used, bounding the per-master
	// rounding distortion while keeping the redraw slack small.
	Width uint
}

// NewStaticLottery builds a static lottery manager.
func NewStaticLottery(cfg StaticConfig) (*StaticLottery, error) {
	n := len(cfg.Tickets)
	if n == 0 {
		return nil, fmt.Errorf("core: no masters")
	}
	if n > MaxMasters {
		return nil, fmt.Errorf("core: %d masters exceeds core.MaxMasters (%d)", n, MaxMasters)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	var total uint64
	for i, t := range cfg.Tickets {
		if t == 0 {
			return nil, fmt.Errorf("core: master %d has zero tickets", i)
		}
		total += t
	}
	width := cfg.Width
	if width == 0 {
		width = AutoWidth(total)
	}
	if width > 32 {
		return nil, fmt.Errorf("core: RNG width %d exceeds 32", width)
	}
	scaled, err := ScaleTickets(cfg.Tickets, width)
	if err != nil {
		return nil, err
	}
	orig := append([]uint64(nil), cfg.Tickets...)
	l := &StaticLottery{
		orig:      orig,
		scaled:    scaled,
		width:     width,
		policy:    cfg.Policy,
		src:       cfg.Source,
		n:         n,
		scaledLUT: newRangeLUT(scaled, n <= lutMaxMasters),
		origLUT:   newRangeLUT(orig, n <= lutMaxMasters),
	}
	return l, nil
}

// N returns the number of masters.
func (l *StaticLottery) N() int { return l.n }

// Width returns the RNG word width in bits.
func (l *StaticLottery) Width() uint { return l.width }

// Policy returns the configured slack policy.
func (l *StaticLottery) Policy() SlackPolicy { return l.policy }

// Tickets returns the configured (unscaled) holdings.
func (l *StaticLottery) Tickets() []uint64 {
	return append([]uint64(nil), l.orig...)
}

// ScaledTickets returns the power-of-two-scaled holdings used for draws.
func (l *StaticLottery) ScaledTickets() []uint64 {
	return append([]uint64(nil), l.scaled...)
}

// RangeTable returns the partial sums Σ_{j<=i} r_j·t_j for the given
// request mask, using the scaled holdings. This is the row the hardware
// lookup table stores for that request map.
func (l *StaticLottery) RangeTable(mask uint64) []uint64 {
	ps := make([]uint64, l.n)
	prefixSums(l.scaled, mask, ps)
	return ps
}

// Draws reports how many draws have been performed (including redraws).
func (l *StaticLottery) Draws() uint64 { return l.draws }

// Redraws reports how many PolicyRedraw draws fell into the slack zone.
func (l *StaticLottery) Redraws() uint64 { return l.redraws }

// Draw runs one lottery over the masters in mask (bit i set means master
// i has a pending request). It returns the granted master index, or
// NoWinner if mask is empty or a PolicyRedraw draw hit the slack zone.
func (l *StaticLottery) Draw(mask uint64) int {
	mask &= FullMask(l.n)
	if mask == 0 {
		return NoWinner
	}
	// roll's policy switch, inlined, with the row fetched before the RNG
	// call: this is the LUT path of every bus of up to 12 masters, where
	// calling roll measurably slowed the draw.
	l.draws++
	lut := &l.origLUT
	var ps []uint64
	var total, r uint64
	switch l.policy {
	case PolicyModulo:
		ps, total = lut.row(mask)
		if total >= 1<<24 {
			r = prng.Uintn(l.src, total)
		} else {
			r = (l.src.Uint64() & (1<<32 - 1)) % total
		}
	case PolicyRedraw, PolicyAbsorbLast:
		lut = &l.scaledLUT
		ps, total = lut.row(mask)
		r = l.word()
	default: // PolicyExact
		ps, total = lut.row(mask)
		r = prng.Uintn(l.src, total)
	}
	if r >= total {
		return l.slack(highestBit(mask))
	}
	if ps != nil {
		return selectWinner(ps, r)
	}
	w, _ := requesterWinner(lut.holdings, 0, mask, r)
	return w
}

// DrawSet runs one lottery over the masters in set — the wide-fabric
// entry point. For managers of at most 64 masters it reduces to
// Draw(set.Mask64()): same PRNG consumption, same winner, so existing
// fingerprints are untouched and the hot loop stays word-wide. Beyond
// 64 masters the draw walks the set's requesters word by word.
func (l *StaticLottery) DrawSet(set Bitset) int {
	if l.n <= 64 {
		return l.Draw(set.Mask64())
	}
	set.Trim(l.n)
	if set.None() {
		return NoWinner
	}
	holdings := l.scaled
	if l.policy == PolicyExact || l.policy == PolicyModulo {
		holdings = l.orig
	}
	total := setTotal(holdings, set)
	if r := l.roll(total); r < total {
		return setWinner(holdings, set, r)
	}
	return l.slack(set.HighestSet())
}

// roll counts a draw and returns the winning ticket for a live total
// (Draw inlines the same switch). Only the hardware-style policies draw
// a raw RNG word, which can land at or above total — the slack zone
// handled by slack.
func (l *StaticLottery) roll(total uint64) uint64 {
	l.draws++
	switch l.policy {
	case PolicyModulo:
		if total >= 1<<24 {
			return prng.Uintn(l.src, total)
		}
		return (l.src.Uint64() & (1<<32 - 1)) % total
	case PolicyRedraw, PolicyAbsorbLast:
		return l.word()
	default: // PolicyExact
		return prng.Uintn(l.src, total)
	}
}

// slack resolves a draw that landed above the live total: PolicyAbsorbLast
// grants the highest requester, PolicyRedraw issues no grant.
func (l *StaticLottery) slack(highest int) int {
	if l.policy == PolicyAbsorbLast {
		return highest
	}
	l.redraws++
	return NoWinner
}

// word draws one RNG word in [0, 1<<width).
func (l *StaticLottery) word() uint64 {
	return l.src.Uint64() & (uint64(1)<<l.width - 1)
}

// selectWinner returns the first index whose partial sum exceeds r — the
// comparator bank plus priority selector of the hardware implementation.
// Non-requesters can never win: their partial sum equals their
// predecessor's, so the priority selector always fires on the requester
// whose range actually contains r.
func selectWinner(psums []uint64, r uint64) int {
	for i, p := range psums {
		if r < p {
			return i
		}
	}
	return NoWinner
}

// highestBit returns the index of the most significant set bit of mask,
// or NoWinner when mask is empty.
func highestBit(mask uint64) int {
	if mask == 0 {
		return NoWinner
	}
	return 63 - bits.LeadingZeros64(mask)
}

// DynamicLottery is the dynamically-configured lottery manager: ticket
// holdings are inputs to every draw, so any master (or a host processor)
// may re-provision bandwidth at run time.
type DynamicLottery struct {
	n      int
	width  uint
	policy SlackPolicy
	src    prng.Source

	draws   uint64
	redraws uint64
}

// DynamicConfig parameterizes NewDynamicLottery.
type DynamicConfig struct {
	// Masters is the number of contenders.
	Masters int
	// Source supplies random words. Required.
	Source prng.Source
	// Policy selects the slack policy; default PolicyExact. Use
	// PolicyModulo for the datapath the paper's dynamic manager
	// hardware implements.
	Policy SlackPolicy
	// Width is the RNG word width for the hardware-style policies
	// (Modulo/Redraw/AbsorbLast); default 16. Live totals must stay
	// below 1<<Width.
	Width uint
}

// NewDynamicLottery builds a dynamic lottery manager.
func NewDynamicLottery(cfg DynamicConfig) (*DynamicLottery, error) {
	if cfg.Masters <= 0 {
		return nil, fmt.Errorf("core: no masters")
	}
	if cfg.Masters > MaxMasters {
		return nil, fmt.Errorf("core: %d masters exceeds core.MaxMasters (%d)", cfg.Masters, MaxMasters)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	width := cfg.Width
	if width == 0 {
		width = 16
	}
	if width > 32 {
		return nil, fmt.Errorf("core: RNG width %d exceeds 32", width)
	}
	return &DynamicLottery{
		n:      cfg.Masters,
		width:  width,
		policy: cfg.Policy,
		src:    cfg.Source,
	}, nil
}

// N returns the number of masters.
func (l *DynamicLottery) N() int { return l.n }

// Width returns the RNG word width in bits.
func (l *DynamicLottery) Width() uint { return l.width }

// Policy returns the configured slack policy.
func (l *DynamicLottery) Policy() SlackPolicy { return l.policy }

// Draws reports how many draws have been performed (including redraws).
func (l *DynamicLottery) Draws() uint64 { return l.draws }

// Redraws reports how many PolicyRedraw draws fell into the slack zone.
func (l *DynamicLottery) Redraws() uint64 { return l.redraws }

// Draw runs one lottery over the masters in mask with the given live
// ticket holdings (tickets[i] is ignored unless bit i of mask is set).
// A requester with zero tickets can never win while any contender holds
// tickets; if all requesters hold zero tickets the draw degenerates to
// granting the lowest-indexed requester, so a misconfiguration cannot
// deadlock the bus. Returns the winner index or NoWinner.
func (l *DynamicLottery) Draw(mask uint64, tickets []uint64) int {
	if len(tickets) != l.n {
		panic(fmt.Sprintf("core: Draw with %d tickets for %d masters", len(tickets), l.n))
	}
	mask &= FullMask(l.n)
	if mask == 0 {
		return NoWinner
	}
	// Bitwise-AND stage plus adder tree (paper Fig. 10), over the
	// requesters only.
	total := requesterTotal(tickets, 0, mask)
	if total == 0 {
		return lowestBit(mask)
	}
	if r := l.roll(total); r < total {
		w, _ := requesterWinner(tickets, 0, mask, r)
		return w
	}
	return l.slack(highestBit(mask))
}

// DrawSet runs one lottery over the masters in set with the given live
// ticket holdings — the wide-fabric entry point. For managers of at
// most 64 masters it reduces to Draw(set.Mask64(), tickets): same PRNG
// consumption, same winner. Beyond 64 masters the adder tree walks the
// set's requesters word by word.
func (l *DynamicLottery) DrawSet(set Bitset, tickets []uint64) int {
	if l.n <= 64 {
		return l.Draw(set.Mask64(), tickets)
	}
	if len(tickets) != l.n {
		panic(fmt.Sprintf("core: DrawSet with %d tickets for %d masters", len(tickets), l.n))
	}
	set.Trim(l.n)
	if set.None() {
		return NoWinner
	}
	total := setTotal(tickets, set)
	if total == 0 {
		return set.LowestSet()
	}
	if r := l.roll(total); r < total {
		return setWinner(tickets, set, r)
	}
	return l.slack(set.HighestSet())
}

// roll counts a draw and returns the winning ticket for a live total.
// A total that does not fit the RNG word falls back to the exact path
// rather than produce garbage grants; otherwise the hardware-style
// policies draw a raw word, which Redraw and AbsorbLast may find in the
// slack zone at or above total.
func (l *DynamicLottery) roll(total uint64) uint64 {
	l.draws++
	if l.policy == PolicyExact || total >= uint64(1)<<l.width {
		return prng.Uintn(l.src, total)
	}
	if l.policy == PolicyModulo { // the paper's dynamic manager hardware
		return l.word() % total
	}
	return l.word()
}

// slack resolves a draw that landed above the live total, as
// StaticLottery.slack does.
func (l *DynamicLottery) slack(highest int) int {
	if l.policy == PolicyAbsorbLast {
		return highest
	}
	l.redraws++
	return NoWinner
}

func (l *DynamicLottery) word() uint64 {
	return l.src.Uint64() & (uint64(1)<<l.width - 1)
}

// lowestBit returns the index of the least significant set bit of mask,
// or NoWinner when mask is empty.
func lowestBit(mask uint64) int {
	if mask == 0 {
		return NoWinner
	}
	return bits.TrailingZeros64(mask)
}

// AccessProbability returns the probability that a master holding t of T
// total live tickets wins at least one of n consecutive lotteries:
// p = 1 - (1 - t/T)^n (paper §4.2). This is the paper's starvation
// argument: p converges to one geometrically, so no requester is starved.
func AccessProbability(t, total uint64, n int) float64 {
	if total == 0 || n <= 0 {
		return 0
	}
	if t >= total {
		return 1
	}
	q := 1 - float64(t)/float64(total)
	return 1 - math.Pow(q, float64(n))
}

// DrawsForConfidence returns the smallest number of lotteries n such that
// a master holding t of T tickets wins at least once with probability at
// least p. It returns 0 when t >= total (certain on the first draw) and
// -1 for degenerate inputs (t == 0, total == 0, or p >= 1).
func DrawsForConfidence(t, total uint64, p float64) int {
	if t == 0 || total == 0 || p >= 1 {
		return -1
	}
	if t >= total {
		return 1
	}
	if p <= 0 {
		return 1
	}
	q := 1 - float64(t)/float64(total)
	n := math.Log(1-p) / math.Log(q)
	return int(math.Ceil(n))
}
