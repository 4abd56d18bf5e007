package check_test

import (
	"fmt"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/lanes"
	"lotterybus/internal/prng"
	"lotterybus/internal/topology"
	"lotterybus/internal/traffic"
)

// The 64-master boundary is where the request mask crosses from the
// single-word fast path into the wide bitset: 63 and 64 masters must
// stay on the Mask64 path, 65 and beyond take the [K]uint64 path. This
// grid proves all three engines — the scalar per-cycle loop, the
// fast-forward engine and the lane-batched engine — remain bit-identical
// on both sides of that boundary, so the fast path is an optimization
// and not a behavioural fork.

const (
	boundaryCycles = 8000
	boundarySeed   = 99
)

// wideArbMaker builds an n-master arbiter for the boundary grid.
type wideArbMaker struct {
	name string
	make func(n int) (bus.Arbiter, error)
}

func wideArbiters() []wideArbMaker {
	return []wideArbMaker{
		{"static-lottery", func(n int) (bus.Arbiter, error) {
			tickets := make([]uint64, n)
			for i := range tickets {
				tickets[i] = uint64(i%4) + 1
			}
			mgr, err := core.NewStaticLottery(core.StaticConfig{
				Tickets: tickets,
				Source:  prng.NewXorShift64Star(7),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewStaticLottery(mgr), nil
		}},
		{"dynamic-lottery", func(n int) (bus.Arbiter, error) {
			mgr, err := core.NewDynamicLottery(core.DynamicConfig{
				Masters: n,
				Source:  prng.NewXorShift64Star(7),
			})
			if err != nil {
				return nil, err
			}
			return arb.NewDynamicLottery(mgr), nil
		}},
		{"roundrobin", func(n int) (bus.Arbiter, error) {
			return arb.NewRoundRobin(n)
		}},
	}
}

// boundaryShape is one system of the boundary grid: n masters whose
// generators gen builds.
type boundaryShape struct {
	name string
	n    int
	gen  func(i int) (bus.Generator, error)
}

// boundaryShapes returns the grid's systems: light Bernoulli load (so
// the fast-forward engine has dead gaps to skip) at 63, 64, 65 and 96
// masters, plus the two port shapes of the cmp64 crossbar — a 16-master
// memory port of 8-word line refills at 0.07 words/cycle per core, and
// the 64-master directory port of 2-word messages at 0.016 — both
// overloaded, where the fast path's cost tracks requesters and due
// arrivals rather than width.
func boundaryShapes() []boundaryShape {
	var shapes []boundaryShape
	for _, n := range []int{63, 64, 65, 96} {
		n := n
		shapes = append(shapes, boundaryShape{fmt.Sprintf("n%d", n), n, func(i int) (bus.Generator, error) {
			return traffic.NewBernoulli(0.008, traffic.Fixed(8), i%2,
				prng.Derive(boundarySeed, fmt.Sprintf("wide%d/m%d", n, i)))
		}})
	}
	port := func(name string, n int, load float64, words int) boundaryShape {
		return boundaryShape{name, n, func(i int) (bus.Generator, error) {
			return traffic.NewBernoulli(load, traffic.Fixed(words), i%2,
				prng.Derive(boundarySeed, fmt.Sprintf("%s/m%d", name, i)))
		}}
	}
	return append(shapes, port("cmp64-mem16", 16, 0.07, 8), port("cmp64-dir64", 64, 0.016, 2))
}

// buildWideScalar builds the scalar (or fast-forward) bus of a shape.
func buildWideScalar(sh boundaryShape, am wideArbMaker, disableFastForward bool) (*bus.Bus, error) {
	n := sh.n
	b := bus.New(bus.Config{MaxBurst: 16})
	b.DisableFastForward = disableFastForward
	for i := 0; i < n; i++ {
		gen, err := sh.gen(i)
		if err != nil {
			return nil, err
		}
		b.AddMaster(fmt.Sprintf("m%d", i), gen, bus.MasterOpts{Tickets: uint64(i%4) + 1})
	}
	b.AddSlave("mem", bus.SlaveOpts{})
	b.AddSlave("io", bus.SlaveOpts{})
	a, err := am.make(n)
	if err != nil {
		return nil, err
	}
	b.SetArbiter(a)
	return b, nil
}

// buildWideLanes builds the single-lane lane-engine twin.
func buildWideLanes(sh boundaryShape, am wideArbMaker) *lanes.Engine {
	n := sh.n
	e := lanes.New(bus.Config{MaxBurst: 16}, 1)
	for i := 0; i < n; i++ {
		i := i
		e.AddMaster(fmt.Sprintf("m%d", i), bus.MasterOpts{Tickets: uint64(i%4) + 1},
			func(lane int) (bus.Generator, error) { return sh.gen(i) })
	}
	e.AddSlave("mem", bus.SlaveOpts{})
	e.AddSlave("io", bus.SlaveOpts{})
	e.SetArbiter(func(lane int) (bus.Arbiter, error) { return am.make(n) })
	return e
}

// TestWideBoundaryGrid runs 63-, 64-, 65- and 96-master systems and the
// cmp64 port shapes through all three engines and requires identical
// collector fingerprints and a clean invariant audit on each side of
// the mask-word boundary.
func TestWideBoundaryGrid(t *testing.T) {
	for _, sh := range boundaryShapes() {
		for _, am := range wideArbiters() {
			sh, am := sh, am
			t.Run(sh.name+"/"+am.name, func(t *testing.T) {
				t.Parallel()
				scalar, err := buildWideScalar(sh, am, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := scalar.Run(boundaryCycles); err != nil {
					t.Fatal(err)
				}
				ff, err := buildWideScalar(sh, am, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := ff.Run(boundaryCycles); err != nil {
					t.Fatal(err)
				}
				eng := buildWideLanes(sh, am)
				if err := eng.Run(boundaryCycles); err != nil {
					t.Fatal(err)
				}
				want := scalar.Collector().Fingerprint()
				if got := ff.Collector().Fingerprint(); got != want {
					t.Errorf("fast-forward fingerprint %#x, scalar %#x", got, want)
				}
				if got := eng.Collector(0).Fingerprint(); got != want {
					t.Errorf("lanes fingerprint %#x, scalar %#x", got, want)
				}
				if v := check.Audit(scalar); len(v) != 0 {
					t.Errorf("scalar audit: %v", v)
				}
				if v := check.Audit(ff); len(v) != 0 {
					t.Errorf("fast-forward audit: %v", v)
				}
				var moved int64
				for m := 0; m < scalar.Collector().N(); m++ {
					moved += scalar.Collector().Words(m)
				}
				if moved == 0 {
					t.Error("boundary cell moved no words; grid is vacuous")
				}
			})
		}
	}
}

// TestMultiSegmentConservationAudit builds a bridged two-segment fabric
// wide enough to cross the mask boundary (48 masters per segment, 96
// fabric-wide), runs it, and requires the system audit to pass: every
// word entering the bridge from segment A is injected into segment B,
// still waiting in the bridge FIFO, or counted as shed — never invented
// or lost between the segments' independent ledgers.
func TestMultiSegmentConservationAudit(t *testing.T) {
	const perSeg = 48
	mkSeg := func(tag string, hasBridgeMaster bool) *bus.Bus {
		b := bus.New(bus.Config{MaxBurst: 16})
		tickets := []uint64{}
		if hasBridgeMaster {
			b.AddMaster("bridge-in", nil, bus.MasterOpts{Tickets: 4})
			tickets = append(tickets, 4)
		}
		for i := 0; i < perSeg; i++ {
			gen, err := traffic.NewBernoulli(0.02, traffic.Fixed(8), i%2,
				prng.Derive(boundarySeed, tag+fmt.Sprintf("/m%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			b.AddMaster(fmt.Sprintf("%s-m%d", tag, i), gen, bus.MasterOpts{Tickets: uint64(i%3) + 1})
			tickets = append(tickets, uint64(i%3)+1)
		}
		b.AddSlave("local", bus.SlaveOpts{})
		b.AddSlave("uplink", bus.SlaveOpts{})
		mgr, err := core.NewStaticLottery(core.StaticConfig{
			Tickets: tickets,
			Source:  prng.NewXorShift64Star(prng.Derive(boundarySeed, tag+"/arb")),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.SetArbiter(arb.NewStaticLottery(mgr))
		return b
	}
	sys, bridges, err := topology.NewChain(
		[]topology.ChainSegment{
			{Name: "west", Bus: mkSeg("west", false)},
			{Name: "east", Bus: mkSeg("east", true)},
		},
		[]topology.BridgeConfig{{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 2, FifoCap: 16}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(25000); err != nil {
		t.Fatal(err)
	}
	if v := check.AuditSystem(sys); len(v) != 0 {
		t.Fatalf("system audit: %v", v)
	}
	st := bridges[0].Stats()
	if st.WordsIn == 0 {
		t.Fatal("no words crossed the bridge; conservation test is vacuous")
	}
	if st.WordsIn != st.WordsOut+st.WordsWaiting+st.WordsDropped {
		t.Errorf("bridge ledger: in %d != out %d + waiting %d + dropped %d",
			st.WordsIn, st.WordsOut, st.WordsWaiting, st.WordsDropped)
	}
	// Everything segment B's collector credits to the bridge master was
	// put there by the bridge.
	if got := sys.Bus(1).Collector().Words(0); got > st.WordsOut {
		t.Errorf("segment east counts %d bridge words but the bridge injected only %d", got, st.WordsOut)
	}
}
