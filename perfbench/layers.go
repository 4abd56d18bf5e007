package main

import (
	"sync"
	"time"

	"lotterybus/internal/obs"
)

// Tracks of the Chrome trace, one timeline row per source of spans.
const (
	trackSweep  = 0
	trackFabric = 1
	trackProbe  = 2
	trackServe  = 3 // + client index
)

// traceMaxSpans bounds the Chrome trace; spans past it are counted as
// dropped. Metrics never read the trace, so the bound only limits the
// file, not the measurement.
const traceMaxSpans = 50000

// layers collects a traced run's per-layer measurements: ratios summed
// over every call (time per simulated cycle) and per-call samples
// reported as medians, plus the span tree written as a Chrome trace.
// Its methods are safe for concurrent use (serve clients record in
// parallel).
type layers struct {
	tr *obs.Trace

	mu      sync.Mutex
	ratios  map[string]*ratio
	samples map[string][]float64
}

// ratio is a metric reported as num/den.
type ratio struct {
	num, den float64
	unit     string
}

func newLayers() *layers {
	return &layers{
		tr:      obs.NewTrace("perfbench", nil, traceMaxSpans),
		ratios:  map[string]*ratio{},
		samples: map[string][]float64{},
	}
}

// addRatio adds num/den to the named ratio metric.
func (l *layers) addRatio(name, unit string, num, den float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.ratios[name]
	if r == nil {
		r = &ratio{unit: unit}
		l.ratios[name] = r
	}
	r.num += num
	r.den += den
}

// nsPerCycle adds one run's time per simulated cycle.
func (l *layers) nsPerCycle(name string, d time.Duration, cycles int64) {
	l.addRatio(name, "ns", float64(d.Nanoseconds()), float64(cycles))
}

// sample adds one per-call value of a median metric. Units are fixed
// per metric in sampleUnits.
func (l *layers) sample(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples[name] = append(l.samples[name], v)
}

// sampleUnits names the unit of every median metric.
var sampleUnits = map[string]string{
	"simcfg.parse_us":   "us",
	"simcfg.build_us":   "us",
	"stats.collect_us":  "us",
	"core.draw_ns":      "ns",
	"arb.arbitrate_ns":  "ns",
	"topology.build_us": "us",
	"serve.submit_ms":   "ms",
}

// metrics renders every collected metric.
func (l *layers) metrics() map[string]metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]metric, len(l.ratios)+len(l.samples))
	for name, r := range l.ratios {
		v := 0.0
		if r.den > 0 {
			v = r.num / r.den
		}
		out[name] = metric{v, r.unit}
	}
	for name, xs := range l.samples {
		out[name] = metric{median(xs), sampleUnits[name]}
	}
	return out
}
