package main

import (
	"bytes"

	"lotterybus/internal/arb"
	"lotterybus/internal/bus"
	"lotterybus/internal/core"
	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/simcfg"
)

// Standalone probes of the lottery draw (core) and of one arbitration
// decision (arb), built over the ticket weights of the sweep's own
// units. They time the layers in isolation; they do not decompose a
// unit's time.

// probeCalls is the number of calls one probe times.
const probeCalls = 1 << 16

// probeMasks are the request maps the probes cycle through: every
// non-empty subset of sweepMasters masters.
var probeMasks = func() []uint64 {
	var m []uint64
	for mask := uint64(1); mask < 1<<sweepMasters; mask++ {
		m = append(m, mask)
	}
	return m
}()

// probe times core draws and arbitration decisions over the weights of
// the first grid unit of each arbiter kind, recording one sample per
// manager or arbiter.
func (s *sweep) probe(lr *layers) {
	seen := map[string]bool{}
	for _, u := range s.units {
		if u.slice != "grid" {
			continue
		}
		cfg, err := simcfg.ParseConfig(bytes.NewReader(u.doc))
		if err != nil || seen[cfg.Arbiter.Kind] {
			continue
		}
		seen[cfg.Arbiter.Kind] = true
		weights := make([]uint64, len(cfg.Masters))
		for i, m := range cfg.Masters {
			weights[i] = m.Weight
		}
		a, err := probeArbiter(cfg.Arbiter.Kind, weights, cfg.Seed)
		if err != nil {
			continue
		}
		reqs := make([]probeRequests, len(probeMasks))
		for i, m := range probeMasks {
			reqs[i] = probeRequests{mask: m, weights: weights}
		}
		lr.sample("arb.arbitrate_ns", timeCalls(lr, "arb.arbitrate", func(i int) {
			a.Arbitrate(int64(i), &reqs[i%len(reqs)])
		}))
		if cfg.Arbiter.Kind == "lottery" {
			mgr, err := core.NewStaticLottery(core.StaticConfig{Tickets: weights, Source: prng.NewXorShift64Star(cfg.Seed)})
			if err == nil {
				lr.sample("core.draw_ns", timeCalls(lr, "core.draw", func(i int) {
					mgr.Draw(probeMasks[i%len(probeMasks)])
				}))
			}
		}
		if cfg.Arbiter.Kind == "dynamic-lottery" {
			mgr, err := core.NewDynamicLottery(core.DynamicConfig{Masters: len(weights), Source: prng.NewXorShift64Star(cfg.Seed)})
			if err == nil {
				lr.sample("core.draw_ns", timeCalls(lr, "core.draw", func(i int) {
					mgr.Draw(probeMasks[i%len(probeMasks)], weights)
				}))
			}
		}
	}
}

// timeCalls runs fn probeCalls times and returns ns per call.
func timeCalls(lr *layers, span string, fn func(i int)) float64 {
	t0 := obs.Now()
	for i := 0; i < probeCalls; i++ {
		fn(i)
	}
	d := obs.Now().Sub(t0)
	lr.tr.AddSpan(span, nil, trackProbe, t0, d, map[string]any{"calls": probeCalls})
	return float64(d.Nanoseconds()) / probeCalls
}

// probeArbiter builds the arbiter simcfg would select for kind.
func probeArbiter(kind string, weights []uint64, seed uint64) (bus.Arbiter, error) {
	src := prng.NewXorShift64Star(seed)
	switch kind {
	case "lottery":
		mgr, err := core.NewStaticLottery(core.StaticConfig{Tickets: weights, Source: src})
		if err != nil {
			return nil, err
		}
		return arb.NewStaticLottery(mgr), nil
	case "dynamic-lottery", "compensated-lottery":
		mgr, err := core.NewDynamicLottery(core.DynamicConfig{Masters: len(weights), Source: src})
		if err != nil {
			return nil, err
		}
		if kind == "compensated-lottery" {
			return arb.NewCompensatedLottery(weights, 16, mgr)
		}
		return arb.NewDynamicLottery(mgr), nil
	case "priority":
		return arb.NewPriority(weights)
	case "tdma", "tdma1":
		slots := make([]int, len(weights))
		for i, w := range weights {
			slots[i] = int(w) * 16
		}
		return arb.NewTDMA(arb.ContiguousWheel(slots), len(weights), kind == "tdma")
	case "round-robin":
		return arb.NewRoundRobin(len(weights))
	default:
		return arb.NewTokenRing(len(weights), 0)
	}
}

// probeRequests is a fixed request map: every requesting master has 16
// words pending.
type probeRequests struct {
	mask    uint64
	weights []uint64
}

func (r *probeRequests) NumMasters() int    { return len(r.weights) }
func (r *probeRequests) Pending(i int) bool { return r.mask>>uint(i)&1 == 1 }
func (r *probeRequests) Mask() core.Bitset  { return core.Mask64Bitset(r.mask) }
func (r *probeRequests) Tickets(i int) uint64 {
	return r.weights[i]
}
func (r *probeRequests) PendingWords(i int) int {
	if r.Pending(i) {
		return 16
	}
	return 0
}
