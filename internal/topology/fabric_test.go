package topology

import (
	"fmt"
	"math"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/traffic"
)

// chainSegmentBus builds one segment with n local masters offering load
// words/cycle each and a bridge entry/exit: slave 0 is local memory,
// slave 1 addresses the outgoing bridge, and when hasBridgeMaster is set
// master 0 is the incoming bridge's injection point (nil generator).
func chainSegmentBus(t testing.TB, seed uint64, tag string, n int, hasBridgeMaster bool, load float64) *bus.Bus {
	t.Helper()
	b := bus.New(bus.Config{MaxBurst: 16})
	tickets := make([]uint64, 0, n+1)
	if hasBridgeMaster {
		b.AddMaster("bridge-in", nil, bus.MasterOpts{Tickets: 4})
		tickets = append(tickets, 4)
	}
	for i := 0; i < n; i++ {
		gen, err := traffic.NewBernoulli(load, traffic.Fixed(8), i%2,
			prng.Derive(seed, fmt.Sprintf("%s/gen%d", tag, i)))
		if err != nil {
			t.Fatal(err)
		}
		b.AddMaster(fmt.Sprintf("%s-m%d", tag, i), gen, bus.MasterOpts{Tickets: uint64(i%3) + 1})
		tickets = append(tickets, uint64(i%3)+1)
	}
	b.AddSlave("local-mem", bus.SlaveOpts{})
	b.AddSlave("bridge-out", bus.SlaveOpts{})
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: tickets,
		Source:  prng.NewXorShift64Star(prng.Derive(seed, tag+"/arb")),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SetArbiter(arb.NewStaticLottery(mgr))
	return b
}

// TestNewChainValidation proves chain construction rejects malformed
// shapes instead of building a fabric that cannot run.
func TestNewChainValidation(t *testing.T) {
	b := chainSegmentBus(t, 1, "solo", 2, false, 0.3)
	if _, _, err := NewChain([]ChainSegment{{Name: "only", Bus: b}}, nil); err == nil {
		t.Error("single-segment chain accepted")
	}
	b2 := chainSegmentBus(t, 1, "b2", 2, true, 0.3)
	if _, _, err := NewChain(
		[]ChainSegment{{Name: "a", Bus: b}, {Name: "b", Bus: b2}},
		[]BridgeConfig{{SrcSlave: 1, DstMaster: 0, DstSlave: 0}, {SrcSlave: 1, DstMaster: 0, DstSlave: 0}},
	); err == nil {
		t.Error("chain with surplus links accepted")
	}
	if _, _, err := NewChain(
		[]ChainSegment{{Name: "a", Bus: b}, {Name: "b"}},
		[]BridgeConfig{{SrcSlave: 1, DstMaster: 0, DstSlave: 0}},
	); err == nil {
		t.Error("chain with nil segment bus accepted")
	}
}

// TestChainConservation runs a 3-segment, 96-master chain and proves
// the bridge word ledgers balance: every word entering a bridge from
// its upstream segment is accounted for downstream — injected, still
// waiting, or shed — with nothing invented or lost between segments.
func TestChainConservation(t *testing.T) {
	const perSeg = 32 // 3 segments x 32 local masters = 96 fabric-wide
	segs := []ChainSegment{
		{Name: "seg0", Bus: chainSegmentBus(t, 7, "seg0", perSeg, false, 0.3)},
		{Name: "seg1", Bus: chainSegmentBus(t, 7, "seg1", perSeg, true, 0.3)},
		{Name: "seg2", Bus: chainSegmentBus(t, 7, "seg2", perSeg, true, 0.3)},
	}
	links := []BridgeConfig{
		{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 3, FifoCap: 32},
		{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 3, FifoCap: 32},
	}
	sys, bridges, err := NewChain(segs, links)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumBuses() != 3 || len(bridges) != 2 {
		t.Fatalf("chain built %d buses, %d bridges", sys.NumBuses(), len(bridges))
	}
	if err := sys.Run(30000); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, br := range bridges {
		st := br.Stats()
		if st.WordsIn == 0 {
			t.Errorf("bridge %d forwarded no words; segment traffic never crossed", i)
		}
		if got := st.WordsOut + st.WordsWaiting + st.WordsDropped; got != st.WordsIn {
			t.Errorf("bridge %d ledger: in %d != out %d + waiting %d + dropped %d",
				i, st.WordsIn, st.WordsOut, st.WordsWaiting, st.WordsDropped)
		}
		if err := br.CheckConservation(); err != nil {
			t.Errorf("bridge %d: %v", i, err)
		}
		// Words leaving into the downstream segment surface on the
		// bridge master's ledger there: everything that segment's
		// collector credits to the bridge master was injected by the
		// bridge (the difference is messages still queued in flight).
		dstWords := sys.Bus(i + 1).Collector().Words(0)
		if dstWords > st.WordsOut {
			t.Errorf("bridge %d: downstream segment counts %d bridge words but only %d were injected",
				i, dstWords, st.WordsOut)
		}
		total++
	}
	if total != 2 {
		t.Fatalf("audited %d bridges", total)
	}
}

// TestCrossbarValidation proves the partial-crossbar builder rejects
// unusable wirings.
func TestCrossbarValidation(t *testing.T) {
	gen := func(seed uint64) Generator {
		g, err := traffic.NewBernoulli(0.2, traffic.Fixed(4), 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := map[string]CrossbarConfig{
		"no ports":   {Masters: []CrossbarMaster{{Name: "m", Traffic: map[int]Generator{0: gen(1)}}}},
		"no masters": {Ports: []string{"p"}},
		"unwired master": {Ports: []string{"p"},
			Masters: []CrossbarMaster{{Name: "m"}}},
		"unknown port": {Ports: []string{"p"},
			Masters: []CrossbarMaster{{Name: "m", Traffic: map[int]Generator{3: gen(1)}}}},
		"orphan port": {Ports: []string{"p", "q"},
			Masters: []CrossbarMaster{{Name: "m", Traffic: map[int]Generator{0: gen(1)}}}},
	}
	for name, cfg := range cases {
		if _, err := NewCrossbar(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCrossbarPortLotteryShares saturates one crossbar port and proves
// its independent lottery splits the port's bandwidth by ticket ratio,
// while a second, partially wired port serves only its own masters.
func TestCrossbarPortLotteryShares(t *testing.T) {
	tickets := []uint64{1, 2, 3, 4}
	masters := make([]CrossbarMaster, 4)
	for i := range masters {
		voq := map[int]Generator{0: &traffic.Saturating{Words: 8}}
		if i < 2 { // only the first two masters reach port 1
			voq[1] = &traffic.Saturating{Words: 8}
		}
		masters[i] = CrossbarMaster{
			Name:    fmt.Sprintf("m%d", i),
			Tickets: tickets[i],
			Traffic: voq,
		}
	}
	x, err := NewCrossbar(CrossbarConfig{
		Ports:    []string{"hot", "side"},
		Masters:  masters,
		MaxBurst: 16,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Wired(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("port 1 wired %v, want [0 1]", got)
	}
	if err := x.Run(200000); err != nil {
		t.Fatal(err)
	}
	col := x.Port(0).Collector()
	var total int64
	for m := 0; m < col.N(); m++ {
		total += col.Words(m)
	}
	if total == 0 {
		t.Fatal("saturated port moved no words")
	}
	for m := 0; m < col.N(); m++ {
		want := float64(tickets[m]) / 10
		got := float64(col.Words(m)) / float64(total)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("port 0 master %d share %.3f, want %.3f +- 0.05", m, got, want)
		}
	}
	// The side port arbitrates only its two wired masters, 1:2.
	side := x.Port(1).Collector()
	if side.N() != 2 {
		t.Fatalf("side port has %d masters, want 2", side.N())
	}
	sideTotal := side.Words(0) + side.Words(1)
	if sideTotal == 0 {
		t.Fatal("side port moved no words")
	}
	if got := float64(side.Words(1)) / float64(sideTotal); math.Abs(got-2.0/3) > 0.05 {
		t.Errorf("side port master 1 share %.3f, want %.3f +- 0.05", got, 2.0/3)
	}
}
