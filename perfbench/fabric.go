package main

import (
	"fmt"
	"time"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/check"
	"lotterybus/internal/core"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/topology"
	"lotterybus/internal/traffic"
)

// The fabric workload: multi-bus fabrics advanced by the topology
// layer's lock-step scheduler, one fabric at a time. A unit is one
// fabric run. Chains are 4 segments built with bus.New as the topology
// package's own tests build them: each segment has local masters on a
// local memory and a bridge-out slave, and segments 1..3 take the
// upstream bridge as an extra master. The crossbar has the cmp64 shape:
// 64 cores on 4 memory ports plus a shared directory port. The set-up
// builds every fabric of the pass; the unit time is the run and the
// fingerprint collection; every unit is audited after its timed run.

const (
	fabricCycles       = 10_000
	chainSegments      = 4
	chainLocalMasters  = 4
	xbarCores          = 64
	xbarMemPorts       = 4
	fabricSparseChains = 70
	fabricBusyChains   = 15
	fabricCrossbars    = 15
)

// fabricUnit is one fabric of the unit list.
type fabricUnit struct {
	name  string
	kind  string // sparse-chain, busy-chain or crossbar
	busy  bool
	seed  uint64
	load  float64 // per local master of a chain, words/cycle
	words int
	delay int64
	fifo  int
}

// fabricUnits derives the unit list from seed: a fixed set of shapes,
// with the seed drawing generator and lottery seeds, bridge parameters
// and the issue order.
func fabricUnits(seed uint64) []fabricUnit {
	rng := prng.NewSplitMix64(prng.Derive(seed, "perfbench/fabric"))
	var units []fabricUnit
	chain := func(kind string, busy bool, load float64, n int) {
		for i := 0; i < n; i++ {
			units = append(units, fabricUnit{
				name:  fmt.Sprintf("%s%d", kind, i),
				kind:  kind,
				busy:  busy,
				seed:  rng.Uint64(),
				load:  load,
				words: 4 << (i % 2),
				delay: int64(2 + rng.Uint64()%4),
				fifo:  16 << (rng.Uint64() % 3),
			})
		}
	}
	// Sparse segments offer 4 × 0.05 local words/cycle, busy ones 4 × 0.3.
	chain("sparse-chain", false, 0.05, fabricSparseChains)
	chain("busy-chain", true, 0.3, fabricBusyChains)
	for i := 0; i < fabricCrossbars; i++ {
		units = append(units, fabricUnit{name: fmt.Sprintf("crossbar%d", i), kind: "crossbar", busy: true, seed: rng.Uint64()})
	}
	shuffle(len(units), rng, func(i, j int) { units[i], units[j] = units[j], units[i] })
	return units
}

// builtFabric is a fabric ready to run: a chain's lock-step system, or
// a crossbar.
type builtFabric struct {
	sys  *topology.System
	xbar *topology.Crossbar
}

func (f builtFabric) system() *topology.System {
	if f.xbar != nil {
		return f.xbar.System()
	}
	return f.sys
}

func (f builtFabric) run(n int64) error {
	if f.xbar != nil {
		return f.xbar.Run(n)
	}
	return f.sys.Run(n)
}

func (f builtFabric) audit() []check.Violation {
	if f.xbar != nil {
		return check.AuditCrossbar(f.xbar)
	}
	return check.AuditSystem(f.sys)
}

// fingerprint folds every bus collector and every bridge ledger.
func (f builtFabric) fingerprint() uint64 {
	sys := f.system()
	h := uint64(fnvOffset)
	for i := 0; i < sys.NumBuses(); i++ {
		h = fnvMix(h, sys.Bus(i).Collector().Fingerprint())
	}
	for _, br := range sys.Bridges() {
		st := br.Stats()
		h = fnvMix(h, uint64(st.WordsIn))
		h = fnvMix(h, uint64(st.WordsOut))
		h = fnvMix(h, uint64(st.WordsDropped))
	}
	return h
}

func buildFabric(u fabricUnit) (builtFabric, error) {
	if u.kind == "crossbar" {
		x, err := buildCrossbar(u.seed)
		return builtFabric{xbar: x}, err
	}
	segs := make([]topology.ChainSegment, chainSegments)
	links := make([]topology.BridgeConfig, chainSegments-1)
	for s := range segs {
		b, err := chainSegment(u, s)
		if err != nil {
			return builtFabric{}, err
		}
		segs[s] = topology.ChainSegment{Name: fmt.Sprintf("seg%d", s), Bus: b}
		if s > 0 {
			links[s-1] = topology.BridgeConfig{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: u.delay, FifoCap: u.fifo}
		}
	}
	sys, _, err := topology.NewChain(segs, links)
	return builtFabric{sys: sys}, err
}

// chainSegment builds segment s of a chain: a nil-generator bridge-in
// master on every segment but the first, then the local masters.
func chainSegment(u fabricUnit, s int) (*bus.Bus, error) {
	b := bus.New(bus.Config{MaxBurst: 16})
	var tickets []uint64
	if s > 0 {
		b.AddMaster("bridge-in", nil, bus.MasterOpts{Tickets: 4})
		tickets = append(tickets, 4)
	}
	for i := 0; i < chainLocalMasters; i++ {
		gen, err := traffic.NewBernoulli(u.load, traffic.Fixed(u.words), i%2,
			prng.Derive(u.seed, fmt.Sprintf("seg%d/gen%d", s, i)))
		if err != nil {
			return nil, err
		}
		tk := uint64(i%3) + 1
		b.AddMaster(fmt.Sprintf("seg%d-m%d", s, i), gen, bus.MasterOpts{Tickets: tk})
		tickets = append(tickets, tk)
	}
	b.AddSlave("local-mem", bus.SlaveOpts{})
	b.AddSlave("bridge-out", bus.SlaveOpts{})
	mgr, err := core.NewStaticLottery(core.StaticConfig{
		Tickets: tickets,
		Source:  prng.NewXorShift64Star(prng.Derive(u.seed, fmt.Sprintf("seg%d/arb", s))),
	})
	if err != nil {
		return nil, err
	}
	b.SetArbiter(arb.NewStaticLottery(mgr))
	return b, nil
}

// buildCrossbar builds the cmp64-shaped crossbar: core i is homed on
// memory port i/16 with 8-word line refills at 0.07 words/cycle (1.12
// per port), and every core sends 2-word directory messages at 0.016
// (1.02 on the directory port). Core i holds i%4+1 tickets.
func buildCrossbar(seed uint64) (*topology.Crossbar, error) {
	ports := []string{"mem0", "mem1", "mem2", "mem3", "dir"}
	dir := xbarMemPorts
	masters := make([]topology.CrossbarMaster, xbarCores)
	for i := range masters {
		mem, err := traffic.NewBernoulli(0.07, traffic.Fixed(8), 0, prng.Derive(seed, fmt.Sprintf("core%d/mem", i)))
		if err != nil {
			return nil, err
		}
		dgen, err := traffic.NewBernoulli(0.016, traffic.Fixed(2), 0, prng.Derive(seed, fmt.Sprintf("core%d/dir", i)))
		if err != nil {
			return nil, err
		}
		masters[i] = topology.CrossbarMaster{
			Name:    fmt.Sprintf("core%d", i),
			Tickets: uint64(i%4) + 1,
			Traffic: map[int]topology.Generator{i / (xbarCores / xbarMemPorts): mem, dir: dgen},
		}
	}
	return topology.NewCrossbar(topology.CrossbarConfig{Ports: ports, Masters: masters, MaxBurst: 16, Seed: seed})
}

type fabric struct {
	seed  uint64
	units []fabricUnit
}

func newFabric(seed uint64, _ string) (bench, error) {
	return &fabric{seed: seed, units: fabricUnits(seed)}, nil
}

func (w *fabric) pass(lr *layers) (passResult, error) {
	var p passResult
	t0 := obs.Now()
	built := make([]builtFabric, len(w.units))
	for i, u := range w.units {
		b0 := obs.Now()
		f, err := buildFabric(u)
		if err != nil {
			return p, fmt.Errorf("fabric %s: %w", u.name, err)
		}
		if lr != nil {
			d := obs.Now().Sub(b0)
			lr.sample("topology.build_us", float64(d.Nanoseconds())/1e3)
			lr.tr.AddSpan("topology.build", nil, trackFabric, b0, d, map[string]any{"unit": u.name})
		}
		built[i] = f
	}
	p.setup = obs.Now().Sub(t0)
	start := obs.Now()
	var audits time.Duration
	for i, u := range w.units {
		f := built[i]
		buses := int64(f.system().NumBuses())
		u0 := obs.Now()
		if err := f.run(fabricCycles); err != nil {
			return p, fmt.Errorf("fabric %s: %w", u.name, err)
		}
		runDur := obs.Now().Sub(u0)
		fp := f.fingerprint()
		lat := obs.Now().Sub(u0)
		p.samples = append(p.samples, unitSample{class: u.kind, busy: u.busy, cycles: buses * fabricCycles, lat: lat})
		p.prints = append(p.prints, fp)
		if lr != nil {
			w.record(lr, u, f, u0, runDur, buses)
		}
		a0 := obs.Now()
		if v := f.audit(); len(v) > 0 {
			fmt.Printf("fabric gate: %s: %d audit violations, first: %s\n", u.name, len(v), v[0])
			p.fail(i)
		}
		audits += obs.Now().Sub(a0)
		built[i] = builtFabric{} // release the finished fabric
	}
	p.wall = obs.Now().Sub(start) - audits
	return p, nil
}

// record files one traced fabric run under its kind.
func (w *fabric) record(lr *layers, u fabricUnit, f builtFabric, start time.Time, d time.Duration, buses int64) {
	name := map[string]string{
		"sparse-chain": "topology.sparse_ns_per_bus_cycle",
		"busy-chain":   "topology.busy_ns_per_bus_cycle",
		"crossbar":     "topology.crossbar_ns_per_port_cycle",
	}[u.kind]
	lr.nsPerCycle(name, d, buses*fabricCycles)
	sys := f.system()
	var ff int64
	for i := 0; i < sys.NumBuses(); i++ {
		ff += sys.Bus(i).FastForwarded()
	}
	lr.addRatio("topology.fastforward_share", "ratio", float64(ff), float64(buses*fabricCycles))
	lr.tr.AddSpan("topology.run", nil, trackFabric, start, d, map[string]any{"unit": u.name, "buses": buses})
}

// verify has nothing left to do: every unit was audited in its pass.
func (w *fabric) verify(*passResult) error { return nil }
