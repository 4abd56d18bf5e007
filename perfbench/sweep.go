package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"lotterybus"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/simcfg"
)

// The sweep workload: a design-space sweep of single-bus simcfg
// configurations, one unit at a time. A unit is one sweep point:
// Build (or BuildReplicaSet), Run, then Report and the collector
// fingerprint. The grid is 8 arbiter kinds × 7 traffic mixes × 5 bus
// variants, plus three busy slices per arbiter kind: fault-armed
// (per-cycle loop), 4-way replicated through BuildReplicaSet (lanes) and
// 96 masters (wide request maps). Every seed yields the same grid; the
// seed picks each unit's simulation seed, its ticket weights and the
// issue order.

// Simulated lengths per unit, in bus cycles.
const (
	sweepSparseCycles = 200_000
	sweepBusyCycles   = 40_000
	sweepWideCycles   = 20_000
	sweepLanes        = 4
	sweepMasters      = 4
	sweepWideMasters  = 96
)

// arbiterKinds are the eight arbitration schemes simcfg accepts.
var arbiterKinds = []string{
	"lottery", "dynamic-lottery", "compensated-lottery", "priority",
	"tdma", "tdma1", "round-robin", "token-ring",
}

// trafficMix is one per-master arrival process. Busy mixes offer at
// least about one word per cycle in aggregate over sweepMasters
// masters; sparse ones 0.25 or less.
type trafficMix struct {
	name    string
	busy    bool
	traffic func(master int) simcfg.TrafficConfig
}

var sweepMixes = []trafficMix{
	{"saturating", true, func(m int) simcfg.TrafficConfig {
		return simcfg.TrafficConfig{Kind: "saturating", MsgWords: 16, Slave: m % 2}
	}},
	{"tclass", true, func(m int) simcfg.TrafficConfig { // 4 × 0.30
		return simcfg.TrafficConfig{Kind: "class", Class: "T2", Slave: m % 2}
	}},
	{"lclass", false, func(m int) simcfg.TrafficConfig { // 4 × 0.06
		return simcfg.TrafficConfig{Kind: "class", Class: "L3", Slave: m % 2}
	}},
	{"lclass-bursty", false, func(m int) simcfg.TrafficConfig { // 4 × 0.06
		return simcfg.TrafficConfig{Kind: "class", Class: "L6", Slave: m % 2}
	}},
	{"periodic", false, func(m int) simcfg.TrafficConfig { // 4 × 0.05
		return simcfg.TrafficConfig{Kind: "periodic", Period: 80, Phase: int64(20 * m), MsgWords: 4, Slave: m % 2}
	}},
	{"bursty", false, func(m int) simcfg.TrafficConfig { // 4 × 0.05
		return simcfg.TrafficConfig{Kind: "bursty", Load: 0.05, MsgWords: 8, Slave: m % 2}
	}},
	{"light", false, func(m int) simcfg.TrafficConfig { // 4 × 0.04
		return simcfg.TrafficConfig{Kind: "bernoulli", Load: 0.04, MsgWords: 16, Slave: m % 2}
	}},
}

// mixByName returns the named traffic mix.
func mixByName(name string) trafficMix {
	for _, m := range sweepMixes {
		if m.name == name {
			return m
		}
	}
	panic("perfbench: unknown mix " + name)
}

// busVariant is one bus configuration of the grid.
type busVariant struct {
	name  string
	apply func(*simcfg.SimConfig)
}

var busVariants = []busVariant{
	{"plain", func(*simcfg.SimConfig) {}},
	{"wait", func(c *simcfg.SimConfig) {
		for i := range c.Slaves {
			c.Slaves[i].WaitStates = 1
		}
	}},
	{"split", func(c *simcfg.SimConfig) { c.Slaves[1].SplitLatency = 8 }},
	{"arblat", func(c *simcfg.SimConfig) { c.ArbLatency = 1 }},
	{"burst4", func(c *simcfg.SimConfig) { c.MaxBurst = 4 }},
}

// sweepUnit is one sweep point.
type sweepUnit struct {
	name     string
	slice    string // grid, faulted, lanes or wide
	mix      string
	busy     bool
	replicas int // > 1 runs through BuildReplicaSet
	doc      []byte
}

// className labels the unit's latency class: its slice, or its mix for
// grid units.
func (u *sweepUnit) className() string {
	if u.slice == "grid" {
		return u.mix
	}
	return u.slice
}

// unitConfig builds a single-bus config: n masters on two slaves, each
// master drawing 1..4 tickets from rng.
func unitConfig(kind string, mix trafficMix, n int, cycles int64, rng *prng.SplitMix64) *simcfg.SimConfig {
	cfg := &simcfg.SimConfig{
		Cycles:  cycles,
		Seed:    1 + rng.Uint64()>>8, // room for +replica without wrapping
		Arbiter: simcfg.ArbiterConfig{Kind: kind},
		Slaves:  []simcfg.SlaveConfig{{Name: "mem"}, {Name: "periph"}},
	}
	for m := 0; m < n; m++ {
		cfg.Masters = append(cfg.Masters, simcfg.MasterConfig{
			Name:    fmt.Sprintf("m%d", m),
			Weight:  1 + rng.Uint64()%4,
			Traffic: mix.traffic(m),
		})
	}
	return cfg
}

// sweepUnits derives the unit list from seed. It is a pure function of
// seed: the grid is fixed and the seed only draws simulation seeds,
// ticket weights and the issue order.
func sweepUnits(seed uint64) []sweepUnit {
	rng := prng.NewSplitMix64(prng.Derive(seed, "perfbench/sweep"))
	var units []sweepUnit
	add := func(u sweepUnit, cfg *simcfg.SimConfig) {
		doc, err := json.Marshal(cfg)
		if err != nil {
			panic(err) // SimConfig always marshals
		}
		u.doc = doc
		if u.replicas == 0 {
			u.replicas = 1
		}
		units = append(units, u)
	}
	for _, kind := range arbiterKinds {
		for _, mix := range sweepMixes {
			cycles := int64(sweepSparseCycles)
			if mix.busy {
				cycles = sweepBusyCycles
			}
			for _, v := range busVariants {
				cfg := unitConfig(kind, mix, sweepMasters, cycles, rng)
				v.apply(cfg)
				add(sweepUnit{name: kind + "/" + mix.name + "/" + v.name, slice: "grid", mix: mix.name, busy: mix.busy}, cfg)
			}
		}
		cfg := unitConfig(kind, mixByName("tclass"), sweepMasters, sweepBusyCycles, rng)
		cfg.Faults = &lotterybus.FaultConfig{SlaveError: 0.01, WordError: 0.005}
		add(sweepUnit{name: kind + "/faulted", slice: "faulted", mix: "tclass", busy: true}, cfg)

		cfg = unitConfig(kind, mixByName("saturating"), sweepMasters, sweepBusyCycles, rng)
		add(sweepUnit{name: kind + "/lanes", slice: "lanes", mix: "saturating", busy: true, replicas: sweepLanes}, cfg)

		wide := trafficMix{"wide", true, func(m int) simcfg.TrafficConfig { // 96 × 0.0125
			return simcfg.TrafficConfig{Kind: "bernoulli", Load: 0.0125, MsgWords: 4, Slave: m % 2}
		}}
		cfg = unitConfig(kind, wide, sweepWideMasters, sweepWideCycles, rng)
		add(sweepUnit{name: kind + "/wide", slice: "wide", mix: "wide", busy: true}, cfg)
	}
	shuffle(len(units), rng, func(i, j int) { units[i], units[j] = units[j], units[i] })
	return units
}

// shuffle is a Fisher–Yates shuffle driven by rng.
func shuffle(n int, rng *prng.SplitMix64, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(rng.Uint64()%uint64(i+1)))
	}
}

// sweepNaiveSample is the stride of the units the correctness gate
// re-runs on the per-cycle loop.
const sweepNaiveSample = 16

type sweep struct {
	seed  uint64
	units []sweepUnit
}

func newSweep(seed uint64, _ string) (bench, error) {
	return &sweep{seed: seed}, nil
}

// setup is the work before the first unit can start: derive the unit
// list from the seed and parse every unit's config.
func (s *sweep) setup(lr *layers) ([]*simcfg.SimConfig, error) {
	s.units = sweepUnits(s.seed)
	cfgs := make([]*simcfg.SimConfig, len(s.units))
	for i, u := range s.units {
		t0 := obs.Now()
		cfg, err := simcfg.ParseConfig(bytes.NewReader(u.doc))
		if err != nil {
			return nil, fmt.Errorf("sweep unit %s: %w", u.name, err)
		}
		if lr != nil {
			d := obs.Now().Sub(t0)
			lr.sample("simcfg.parse_us", float64(d.Nanoseconds())/1e3)
			lr.tr.AddSpan("simcfg.parse", nil, trackSweep, t0, d, nil)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

func (s *sweep) pass(lr *layers) (passResult, error) {
	var p passResult
	t0 := obs.Now()
	cfgs, err := s.setup(lr)
	if err != nil {
		return p, err
	}
	p.setup = obs.Now().Sub(t0)
	start := obs.Now()
	for i, u := range s.units {
		fp, cycles, lat, err := runSweepUnit(&u, cfgs[i], lr)
		if err != nil {
			return p, fmt.Errorf("sweep unit %s: %w", u.name, err)
		}
		p.samples = append(p.samples, unitSample{class: u.className(), busy: u.busy, cycles: cycles, lat: lat})
		p.prints = append(p.prints, fp)
	}
	p.wall = obs.Now().Sub(start)
	if lr != nil {
		s.probe(lr)
	}
	return p, nil
}

// runSweepUnit runs one sweep point and returns its fingerprint (folded
// over replicas), the simulated cycles and the unit latency.
func runSweepUnit(u *sweepUnit, cfg *simcfg.SimConfig, lr *layers) (uint64, int64, time.Duration, error) {
	t0 := obs.Now()
	var unit *spanTimer
	if lr != nil {
		unit = &spanTimer{lr: lr, last: t0}
		unit.parent = lr.tr.StartTrack("sweep.unit", nil, trackSweep).Arg("unit", u.name)
	}
	fp := uint64(fnvOffset)
	if u.replicas > 1 {
		rs, err := cfg.BuildReplicaSet(u.replicas)
		if err != nil {
			return 0, 0, 0, err
		}
		unit.lap("simcfg.build", "simcfg.build_us")
		if err := rs.Run(cfg.Cycles); err != nil {
			return 0, 0, 0, err
		}
		unit.laneRun(cfg.Cycles * int64(u.replicas))
		for r := 0; r < u.replicas; r++ {
			_ = rs.Report(r)
			fp = fnvMix(fp, rs.Collector(r).Fingerprint())
		}
		unit.lap("stats.collect", "stats.collect_us")
		unit.end()
		return fp, cfg.Cycles * int64(u.replicas), obs.Now().Sub(t0), nil
	}
	sys, err := cfg.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	unit.lap("simcfg.build", "simcfg.build_us")
	if err := sys.Run(cfg.Cycles); err != nil {
		return 0, 0, 0, err
	}
	unit.busRun(u, cfg.Cycles, sys.FastForwardedCycles())
	_ = sys.Report()
	fp = fnvMix(fp, sys.Collector().Fingerprint())
	unit.lap("stats.collect", "stats.collect_us")
	unit.end()
	return fp, cfg.Cycles, obs.Now().Sub(t0), nil
}

// spanTimer splits one traced unit into consecutive layer calls. A nil
// *spanTimer (an untraced unit) does nothing.
type spanTimer struct {
	lr     *layers
	parent *obs.Span
	last   time.Time
}

// lap closes the call that began at the previous lap: it records a span
// and, when sampleName is set, a microsecond sample.
func (t *spanTimer) lap(span, sampleName string) time.Duration {
	if t == nil {
		return 0
	}
	now := obs.Now()
	d := now.Sub(t.last)
	t.lr.tr.AddSpan(span, t.parent, trackSweep, t.last, d, nil)
	if sampleName != "" {
		t.lr.sample(sampleName, float64(d.Nanoseconds())/1e3)
	}
	t.last = now
	return d
}

// busRun closes a single-bus Run, filing its time per cycle under the
// unit's class.
func (t *spanTimer) busRun(u *sweepUnit, cycles, fastForwarded int64) {
	if t == nil {
		return
	}
	d := t.lap("bus.run", "")
	var name string
	switch {
	case u.slice == "faulted":
		name = "bus.faulted_ns_per_cycle"
	case u.slice == "wide":
		name = "bus.wide_ns_per_cycle"
	case u.mix == "saturating":
		name = "bus.saturating_ns_per_cycle"
	case u.busy:
		name = "bus.busy_ns_per_cycle"
	default:
		name = "bus.sparse_ns_per_cycle"
	}
	t.lr.nsPerCycle(name, d, cycles)
	t.lr.addRatio("bus.fastforward_share", "ratio", float64(fastForwarded), float64(cycles))
}

// laneRun closes a ReplicaSet Run.
func (t *spanTimer) laneRun(laneCycles int64) {
	if t == nil {
		return
	}
	d := t.lap("lanes.run", "")
	t.lr.nsPerCycle("lanes.ns_per_lane_cycle", d, laneCycles)
}

func (t *spanTimer) end() {
	if t == nil {
		return
	}
	t.parent.End()
}

// verify re-runs every sweepNaiveSample-th unit on the per-cycle loop —
// a no-op OnCycle hook forces it — and compares fingerprints with the
// reference pass. Replicated units re-run each replica as a System at
// the replica's seed.
func (s *sweep) verify(ref *passResult) error {
	for i := 0; i < len(s.units); i += sweepNaiveSample {
		fp, err := naiveFingerprint(s.units[i])
		if err != nil {
			return err
		}
		if fp != ref.prints[i] {
			fmt.Printf("sweep gate: unit %s fingerprint %#x, naive loop %#x\n", s.units[i].name, ref.prints[i], fp)
			ref.fail(i)
		}
	}
	return nil
}

// naiveFingerprint runs u on the per-cycle loop.
func naiveFingerprint(u sweepUnit) (uint64, error) {
	fp := uint64(fnvOffset)
	for r := 0; r < u.replicas; r++ {
		cfg, err := simcfg.ParseConfig(bytes.NewReader(u.doc))
		if err != nil {
			return 0, err
		}
		cfg.Seed += uint64(r)
		sys, err := cfg.Build()
		if err != nil {
			return 0, err
		}
		sys.OnCycle(func(int64, *lotterybus.System) {})
		if err := sys.Run(cfg.Cycles); err != nil {
			return 0, err
		}
		fp = fnvMix(fp, sys.Collector().Fingerprint())
	}
	return fp, nil
}
