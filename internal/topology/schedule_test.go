package topology_test

// Differential suite for the event-ordered fabric schedule: every
// randomized fabric is built twice from one seed, one copy advanced by
// System.Run in random chunks and the other by the lock-step oracle,
// and every observable — per-bus collector fingerprints, cycles, queue
// and drop counters, bridge ledgers — must agree bit for bit.

import (
	"fmt"
	"strings"
	"testing"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/prng"
	"lotterybus/internal/topology"
	"lotterybus/internal/traffic"
)

// Fabric shapes the suite draws from.
const (
	shapeSparseChain = iota
	shapeBusyChain
	shapeDAG
	shapeCrossbar
	shapeCyclic
	numShapes
)

// link is one bridge between fabric nodes (before the bus-index
// permutation).
type link struct{ from, to int }

// fabricCase is a randomized fabric: build returns a fresh, identical
// system on every call.
type fabricCase struct {
	name   string
	shape  int
	cycles int64
	build  func() (*topology.System, error)
}

func pick(rng *prng.SplitMix64, n int) int { return int(rng.Uint64() % uint64(n)) }

// randomCase draws one fabric of the given shape from seed.
func randomCase(seed uint64, shape int) fabricCase {
	rng := prng.NewSplitMix64(seed)
	c := fabricCase{
		name:   fmt.Sprintf("shape%d/seed%#x", shape, seed),
		shape:  shape,
		cycles: 3000 + int64(pick(rng, 4000)), // crosses several schedule windows
	}
	if shape == shapeCrossbar {
		c.build = crossbarBuilder(rng)
		return c
	}
	var nodes int
	var links []link
	switch shape {
	case shapeSparseChain, shapeBusyChain:
		nodes = 2 + pick(rng, 4)
		for i := 0; i+1 < nodes; i++ {
			links = append(links, link{i, i + 1})
		}
	case shapeDAG:
		// Fan-in onto node 2, fan-out from nodes 0 and 2, plus random
		// forward edges.
		nodes = 4 + pick(rng, 2)
		links = []link{{0, 2}, {1, 2}, {2, 3}, {0, 3}}
		for i := 0; i < nodes; i++ {
			for j := i + 1; j < nodes; j++ {
				if j >= 4 && pick(rng, 2) == 0 {
					links = append(links, link{i, j})
				}
			}
		}
	case shapeCyclic:
		nodes = 2 + pick(rng, 2)
		links = []link{{0, 1}, {1, 0}}
		if nodes == 3 {
			links = append(links, link{1, 2})
		}
	}
	c.build = graphBuilder(rng, nodes, links, shape == shapeSparseChain)
	return c
}

// nodeSpec is one bus of a bridged fabric.
type nodeSpec struct {
	ins, outs int // incoming / outgoing bridges
	gens      []genSpec
	slaves    []bus.SlaveOpts
	arb       int
	cfg       bus.Config
	tickets   []uint64
	seed      uint64
}

type genSpec struct {
	load       float64
	lo, hi     int
	slave      int
	saturating bool
}

// graphBuilder draws buses for a bridged graph of nodes and returns a
// builder placing node n at a random bus index.
func graphBuilder(rng *prng.SplitMix64, nodes int, links []link, sparse bool) func() (*topology.System, error) {
	specs := make([]nodeSpec, nodes)
	for _, l := range links {
		specs[l.from].outs++
		specs[l.to].ins++
	}
	queueCaps := []int{1, 2, 3, 8, 0}
	for n := range specs {
		s := &specs[n]
		s.seed = rng.Uint64()
		s.arb = pick(rng, 3)
		s.cfg = bus.Config{
			MaxBurst:        []int{1, 4, 16}[pick(rng, 3)],
			ArbLatency:      pick(rng, 2),
			DefaultQueueCap: queueCaps[pick(rng, len(queueCaps))],
		}
		if !sparse && pick(rng, 6) == 0 {
			// The starvation detector keeps this bus on the naive loop.
			s.cfg.StarvationThreshold = 40
		}
		// Slave 0 is local; slaves 1..outs address the outgoing bridges.
		for k := 0; k < 1+s.outs; k++ {
			var o bus.SlaveOpts
			switch pick(rng, 4) {
			case 0:
				o.WaitStates = 1 + pick(rng, 2)
			case 1:
				o.SplitLatency = 1 + pick(rng, 6)
			}
			s.slaves = append(s.slaves, o)
		}
		for k := 0; k < 1+pick(rng, 3); k++ {
			g := genSpec{lo: 1 + pick(rng, 4), slave: pick(rng, len(s.slaves))}
			g.hi = g.lo + pick(rng, 12)
			if sparse {
				g.load = 0.01 + 0.05*float64(pick(rng, 100))/100
			} else {
				g.load = 0.05 + 0.4*float64(pick(rng, 100))/100
				g.saturating = pick(rng, 12) == 0
			}
			s.gens = append(s.gens, g)
		}
		for k := 0; k < s.ins+len(s.gens); k++ {
			s.tickets = append(s.tickets, uint64(1+pick(rng, 4)))
		}
	}
	perm := make([]int, nodes) // perm[node] = bus index
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := pick(rng, i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cfgs := make([]topology.BridgeConfig, len(links))
	nextIn, nextOut := make([]int, nodes), make([]int, nodes)
	for i, l := range links {
		cfgs[i] = topology.BridgeConfig{
			SrcSlave:  1 + nextOut[l.from],
			DstMaster: nextIn[l.to],
			DstSlave:  pick(rng, len(specs[l.to].slaves)),
			Delay:     int64(pick(rng, 10)),
			FifoCap:   []int{1, 2, 4, 16, 64, 0}[pick(rng, 6)],
		}
		nextOut[l.from]++
		nextIn[l.to]++
	}
	return func() (*topology.System, error) {
		sys := topology.NewSystem()
		byBus := make([]int, nodes)
		for n, b := range perm {
			byBus[b] = n
		}
		for _, n := range byBus {
			b, err := buildNode(specs[n])
			if err != nil {
				return nil, err
			}
			sys.AddBus(fmt.Sprintf("node%d", n), b)
		}
		for i, l := range links {
			if _, err := sys.Connect(perm[l.from], perm[l.to], cfgs[i]); err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
}

func buildNode(s nodeSpec) (*bus.Bus, error) {
	b := bus.New(s.cfg)
	for k := 0; k < s.ins; k++ {
		b.AddMaster(fmt.Sprintf("bridge-in%d", k), nil, bus.MasterOpts{Tickets: s.tickets[k]})
	}
	for k, g := range s.gens {
		var gen bus.Generator
		if g.saturating {
			gen = &traffic.Saturating{Words: g.hi, Slave: g.slave}
		} else {
			bg, err := traffic.NewBernoulli(g.load, traffic.Uniform{Lo: g.lo, Hi: g.hi}, g.slave,
				prng.Derive(s.seed, fmt.Sprintf("gen%d", k)))
			if err != nil {
				return nil, err
			}
			gen = bg
		}
		b.AddMaster(fmt.Sprintf("m%d", k), gen, bus.MasterOpts{Tickets: s.tickets[s.ins+k]})
	}
	for k, o := range s.slaves {
		b.AddSlave(fmt.Sprintf("s%d", k), o)
	}
	var a bus.Arbiter
	var err error
	switch s.arb {
	case 0:
		var mgr *core.StaticLottery
		mgr, err = core.NewStaticLottery(core.StaticConfig{
			Tickets: s.tickets,
			Source:  prng.NewXorShift64Star(prng.Derive(s.seed, "arb")),
		})
		if err == nil {
			a = arb.NewStaticLottery(mgr)
		}
	case 1:
		a, err = arb.NewPriority(s.tickets)
	default:
		a, err = arb.NewRoundRobin(len(s.tickets))
	}
	if err != nil {
		return nil, err
	}
	b.SetArbiter(a)
	return b, nil
}

// crossbarBuilder draws a partial crossbar.
func crossbarBuilder(rng *prng.SplitMix64) func() (*topology.System, error) {
	ports := 2 + pick(rng, 3)
	type wire struct {
		port  int
		load  float64
		words int
	}
	masters := make([][]wire, ports+pick(rng, 8)) // every port gets a master
	tickets := make([]uint64, len(masters))
	for m := range masters {
		tickets[m] = uint64(1 + pick(rng, 4))
		for p := 0; p < ports; p++ {
			if p == m%ports || pick(rng, 3) == 0 {
				masters[m] = append(masters[m], wire{p, 0.02 + 0.2*float64(pick(rng, 100))/100, 1 + pick(rng, 8)})
			}
		}
	}
	seed := rng.Uint64()
	return func() (*topology.System, error) {
		cfg := topology.CrossbarConfig{MaxBurst: 8, Seed: seed}
		for p := 0; p < ports; p++ {
			cfg.Ports = append(cfg.Ports, fmt.Sprintf("p%d", p))
		}
		for m, ws := range masters {
			cm := topology.CrossbarMaster{Name: fmt.Sprintf("m%d", m), Tickets: tickets[m], Traffic: map[int]topology.Generator{}}
			for _, w := range ws {
				g, err := traffic.NewBernoulli(w.load, traffic.Fixed(w.words), 0,
					prng.Derive(seed, fmt.Sprintf("m%d/p%d", m, w.port)))
				if err != nil {
					return nil, err
				}
				cm.Traffic[w.port] = g
			}
			cfg.Masters = append(cfg.Masters, cm)
		}
		x, err := topology.NewCrossbar(cfg)
		if err != nil {
			return nil, err
		}
		return x.System(), nil
	}
}

// compareSystems fails on any observable divergence between the oracle
// (want) and the event-ordered run (got).
func compareSystems(t *testing.T, want, got *topology.System) {
	t.Helper()
	if w, g := want.Cycle(), got.Cycle(); w != g {
		t.Fatalf("system cycle: lock-step %d, event %d", w, g)
	}
	for i := 0; i < want.NumBuses(); i++ {
		wb, gb := want.Bus(i), got.Bus(i)
		if w, g := wb.Cycle(), gb.Cycle(); w != g {
			t.Errorf("bus %s cycle: lock-step %d, event %d", want.BusName(i), w, g)
		}
		if w, g := wb.Collector().Fingerprint(), gb.Collector().Fingerprint(); w != g {
			t.Errorf("bus %s fingerprint: lock-step %#x, event %#x", want.BusName(i), w, g)
		}
		for m := 0; m < wb.NumMasters(); m++ {
			wm, gm := wb.Master(m), gb.Master(m)
			if wm.Dropped() != gm.Dropped() || wm.QueueLen() != gm.QueueLen() ||
				wm.EnqueuedWords() != gm.EnqueuedWords() || wm.Outstanding() != gm.Outstanding() {
				t.Errorf("bus %s master %d: lock-step drop/queue/enq/out %d/%d/%d/%v, event %d/%d/%d/%v",
					want.BusName(i), m, wm.Dropped(), wm.QueueLen(), wm.EnqueuedWords(), wm.Outstanding(),
					gm.Dropped(), gm.QueueLen(), gm.EnqueuedWords(), gm.Outstanding())
			}
		}
	}
	for j, wbr := range want.Bridges() {
		if w, g := wbr.Stats(), got.Bridges()[j].Stats(); w != g {
			t.Errorf("bridge %s stats: lock-step %+v, event %+v", wbr.Name(), w, g)
		}
	}
}

// runCase runs one fabric both ways, fails on any divergence, and
// returns the event-ordered system.
func runCase(t *testing.T, c fabricCase, chunkSeed uint64, maxChunk int) *topology.System {
	t.Helper()
	want, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	if ordered := got.EventOrdered(); ordered == (c.shape == shapeCyclic) {
		t.Fatalf("EventOrdered() = %v for shape %d", ordered, c.shape)
	}
	if err := want.RunLockStep(c.cycles); err != nil {
		t.Fatal(err)
	}
	rng := prng.NewSplitMix64(chunkSeed)
	for left := c.cycles; left > 0; {
		k := min(left, int64(1+pick(rng, maxChunk)))
		if err := got.Run(k); err != nil {
			t.Fatal(err)
		}
		left -= k
	}
	compareSystems(t, want, got)
	if v := check.AuditSystem(got); len(v) > 0 {
		t.Errorf("%d audit violations, first: %s", len(v), v[0])
	}
	return got
}

// TestFabricScheduleEquivalence is the randomized differential test of
// System.Run against the lock-step oracle: chains of 2–5 segments in
// permuted bus order, fan-in/fan-out DAGs, partial crossbars and a
// cyclic A⇄B pair (which must fall back to lock-step), over delays 0–9,
// FIFO caps 1–64, queue caps 1 to default, wait-state and split slaves,
// and Run split into random chunks. The suite must also reach both
// drop paths: FIFO overflow at admission and refusal at injection.
func TestFabricScheduleEquivalence(t *testing.T) {
	perShape := map[int]int{shapeSparseChain: 60, shapeBusyChain: 60, shapeDAG: 40, shapeCrossbar: 16, shapeCyclic: 8}
	if testing.Short() {
		for k := range perShape {
			perShape[k] = (perShape[k] + 3) / 4
		}
	}
	var admitDrops, injectDrops int64
	root := prng.NewSplitMix64(0x5eed)
	for shape := 0; shape < numShapes; shape++ {
		for k := 0; k < perShape[shape]; k++ {
			c := randomCase(root.Uint64(), shape)
			t.Run(c.name, func(t *testing.T) {
				sys := runCase(t, c, root.Uint64(), 3000)
				var ff int64
				for i := 0; i < sys.NumBuses(); i++ {
					ff += sys.Bus(i).FastForwarded()
				}
				if c.shape == shapeSparseChain && ff == 0 {
					t.Error("sparse chain never reached the fast path")
				}
				// Bridge drops are admission drops plus injection
				// refusals, which the generator-less bridge-in masters
				// count as their own queue drops.
				for _, br := range sys.Bridges() {
					admitDrops += br.Dropped()
				}
				for i := 0; i < sys.NumBuses(); i++ {
					for _, m := range sys.Bus(i).Masters() {
						if strings.HasPrefix(m.Name(), "bridge-in") {
							admitDrops -= m.Dropped()
							injectDrops += m.Dropped()
						}
					}
				}
			})
		}
	}
	if admitDrops == 0 || injectDrops == 0 {
		t.Errorf("drop paths not covered: %d dropped at admission, %d refused at injection", admitDrops, injectDrops)
	}
}

// FuzzFabricSchedule drives the differential test from fuzzed seeds,
// shapes and Run chunk lengths.
func FuzzFabricSchedule(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(uint64(shape+1), uint8(shape), uint16(1))
		f.Add(uint64(0xfab0+shape), uint8(shape), uint16(4096))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, chunk uint16) {
		c := randomCase(seed, int(shape)%numShapes)
		c.cycles = 3000
		runCase(t, c, seed, 1+int(chunk))
	})
}

// TestForeignCompletionHookKeepsLockStep proves a completion hook set on
// a bus before Connect keeps the system on the lock-step schedule, and
// that the hook still sees every completion.
func TestForeignCompletionHookKeepsLockStep(t *testing.T) {
	mk := func() *bus.Bus {
		b := bus.New(bus.Config{})
		b.AddMaster("m", nil, bus.MasterOpts{})
		b.AddSlave("s", bus.SlaveOpts{})
		pa, _ := arb.NewPriority([]uint64{1})
		b.SetArbiter(pa)
		return b
	}
	for _, foreign := range []bool{false, true} {
		sys := topology.NewSystem()
		a, b := mk(), mk()
		seen := 0
		if foreign {
			a.OnMessageComplete = func(int, int, int, int64, int64) { seen++ }
		}
		sys.AddBus("a", a)
		sys.AddBus("b", b)
		if _, err := sys.Connect(0, 1, topology.BridgeConfig{}); err != nil {
			t.Fatal(err)
		}
		if sys.EventOrdered() == foreign {
			t.Fatalf("foreign hook %v: EventOrdered() = %v", foreign, sys.EventOrdered())
		}
		a.Inject(0, 3, 0)
		if err := sys.Run(100); err != nil {
			t.Fatal(err)
		}
		if foreign && seen != 1 {
			t.Fatalf("foreign hook saw %d completions, want 1", seen)
		}
		if fwd := sys.Bridges()[0].Forwarded(); fwd != 1 {
			t.Fatalf("foreign hook %v: forwarded %d, want 1", foreign, fwd)
		}
	}
}
