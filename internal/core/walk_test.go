package core

import (
	"fmt"
	"testing"

	"lotterybus/internal/prng"
)

// The managers draw by walking only the requesters' set bits whenever
// no lookup-table row serves the request map. The references below are
// the prefix scan they replaced: partial sums formed over every master,
// then the comparator scan. TestDrawRequesterWalkMatchesPrefixScan holds
// the two to the same winner and the same PRNG consumption.

var allPolicies = []SlackPolicy{PolicyExact, PolicyModulo, PolicyRedraw, PolicyAbsorbLast}

// scanPrefix returns the partial sums Σ_{j<=i} r_j·t_j over all masters.
func scanPrefix(holdings []uint64, set Bitset) ([]uint64, uint64) {
	ps := make([]uint64, len(holdings))
	var acc uint64
	for i, h := range holdings {
		if set.Test(i) {
			acc += h
		}
		ps[i] = acc
	}
	return ps, acc
}

// prefixScanStatic is StaticLottery.DrawSet by prefix scan, drawing
// from src.
func prefixScanStatic(l *StaticLottery, src prng.Source, set Bitset) int {
	set.Trim(l.n)
	if set.None() {
		return NoWinner
	}
	holdings := l.scaled
	if l.policy == PolicyExact || l.policy == PolicyModulo {
		holdings = l.orig
	}
	ps, total := scanPrefix(holdings, set)
	word := func() uint64 { return src.Uint64() & (uint64(1)<<l.width - 1) }
	var r uint64
	switch l.policy {
	case PolicyModulo:
		if total >= 1<<24 {
			r = prng.Uintn(src, total)
		} else {
			r = (src.Uint64() & (1<<32 - 1)) % total
		}
	case PolicyRedraw:
		if r = word(); r >= total {
			return NoWinner
		}
	case PolicyAbsorbLast:
		if r = word(); r >= total {
			return set.HighestSet()
		}
	default:
		r = prng.Uintn(src, total)
	}
	return selectWinner(ps, r)
}

// prefixScanDynamic is DynamicLottery.DrawSet by prefix scan, drawing
// from src.
func prefixScanDynamic(l *DynamicLottery, src prng.Source, set Bitset, tickets []uint64) int {
	set.Trim(l.n)
	if set.None() {
		return NoWinner
	}
	ps, total := scanPrefix(tickets, set)
	if total == 0 {
		return set.LowestSet()
	}
	if total >= uint64(1)<<l.width && l.policy != PolicyExact {
		return selectWinner(ps, prng.Uintn(src, total))
	}
	word := func() uint64 { return src.Uint64() & (uint64(1)<<l.width - 1) }
	var r uint64
	switch l.policy {
	case PolicyExact:
		r = prng.Uintn(src, total)
	case PolicyRedraw:
		if r = word(); r >= total {
			return NoWinner
		}
	case PolicyAbsorbLast:
		if r = word(); r >= total {
			return set.HighestSet()
		}
	default:
		r = word() % total
	}
	return selectWinner(ps, r)
}

// randomSet draws a request map over n masters at one of three
// densities (sparse, half, nearly full), occasionally with stray bits
// above n that the managers must ignore.
func randomSet(rng prng.Source, n int) Bitset {
	density := []uint64{8, 128, 245}[rng.Uint64()%3]
	var set Bitset
	for i := 0; i < n; i++ {
		if rng.Uint64()%256 < density {
			set.Set(i)
		}
	}
	if n < MaxMasters && rng.Uint64()%8 == 0 {
		set.Set(n + int(rng.Uint64()%uint64(MaxMasters-n)))
	}
	return set
}

// drawBoth calls Draw on the mask word or DrawSet on the whole set,
// alternating on narrow managers so both entry points are covered.
func drawBoth(k, n int, set Bitset, draw func(uint64) int, drawSet func(Bitset) int) int {
	if n <= 64 && k%2 == 0 {
		m := set
		m.Trim(n)
		return draw(m.Mask64())
	}
	return drawSet(set)
}

// TestDrawRequesterWalkMatchesPrefixScan compares both managers against
// the prefix scan for every width from 1 to 256 masters, under every
// slack policy: same winner, and the sources stay in lockstep (the next
// word after each draw agrees), so no fingerprint can move. The dynamic
// manager also sees zero-ticket requesters, all-zero request sets and
// live totals beyond its RNG width.
func TestDrawRequesterWalkMatchesPrefixScan(t *testing.T) {
	const drawsPerCase = 24
	rng := prng.NewSplitMix64(0x5eed)
	for n := 1; n <= MaxMasters; n++ {
		for _, policy := range allPolicies {
			seed := rng.Uint64()
			tickets := make([]uint64, n)
			for i := range tickets {
				tickets[i] = 1 + rng.Uint64()%16
			}
			switch {
			case n%7 == 0:
				tickets[n/2] = 1 << 25 // lifts modulo totals onto the exact path
			case n%5 == 0:
				tickets[n/2] = 1 << 20 // one heavy holder skews the ranges
			}
			st, err := NewStaticLottery(StaticConfig{Tickets: tickets, Source: prng.NewXorShift64Star(seed), Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			stRef := prng.NewXorShift64Star(seed)

			width := uint(16)
			if n%2 == 0 {
				width = 6 // small enough that live totals overflow it
			}
			dyn, err := NewDynamicLottery(DynamicConfig{Masters: n, Source: prng.NewXorShift64Star(seed), Policy: policy, Width: width})
			if err != nil {
				t.Fatal(err)
			}
			dynRef := prng.NewXorShift64Star(seed)
			live := make([]uint64, n)

			for k := 0; k < drawsPerCase; k++ {
				name := fmt.Sprintf("n=%d policy=%v draw %d", n, policy, k)
				set := randomSet(rng, n)

				want := prefixScanStatic(st, stRef, set)
				got := drawBoth(k, n, set, st.Draw, st.DrawSet)
				if got != want {
					t.Fatalf("static %s: winner %d, prefix scan %d", name, got, want)
				}
				if a, b := st.src.Uint64(), stRef.Uint64(); a != b {
					t.Fatalf("static %s: next word %#x, prefix scan %#x", name, a, b)
				}

				for i := range live {
					live[i] = rng.Uint64() % 8 // zero for about one master in eight
				}
				if k%6 == 5 {
					for i := range live {
						if set.Test(i) {
							live[i] = 0 // every requester holds zero tickets
						}
					}
				}
				want = prefixScanDynamic(dyn, dynRef, set, live)
				got = drawBoth(k, n, set,
					func(m uint64) int { return dyn.Draw(m, live) },
					func(s Bitset) int { return dyn.DrawSet(s, live) })
				if got != want {
					t.Fatalf("dynamic %s: winner %d, prefix scan %d", name, got, want)
				}
				if a, b := dyn.src.Uint64(), dynRef.Uint64(); a != b {
					t.Fatalf("dynamic %s: next word %#x, prefix scan %#x", name, a, b)
				}
			}
		}
	}
}
