package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"lotterybus/internal/simcfg"
)

// TestUnitListsArePureFunctionsOfSeed proves every workload's unit list
// is derived from the seed alone: the same seed rebuilds it byte for
// byte, another seed changes it.
func TestUnitListsArePureFunctionsOfSeed(t *testing.T) {
	sweepDocs := func(seed uint64) [][]byte {
		var out [][]byte
		for _, u := range sweepUnits(seed) {
			out = append(out, append([]byte(u.name+"|"), u.doc...))
		}
		return out
	}
	serveBodies := func(seed uint64) [][]byte {
		var out [][]byte
		for _, list := range serveJobs(seed) {
			for _, j := range list {
				out = append(out, j.body)
			}
		}
		return out
	}
	fabricDocs := func(seed uint64) [][]byte {
		var out [][]byte
		for _, u := range fabricUnits(seed) {
			b, _ := json.Marshal([]any{u.name, u.seed, u.load, u.words, u.delay, u.fifo})
			out = append(out, b)
		}
		return out
	}
	for name, gen := range map[string]func(uint64) [][]byte{"sweep": sweepDocs, "serve": serveBodies, "fabric": fabricDocs} {
		a, b, c := gen(7), gen(7), gen(8)
		if !equalDocs(a, b) {
			t.Errorf("%s: the same seed built different unit lists", name)
		}
		if equalDocs(a, c) {
			t.Errorf("%s: seeds 7 and 8 built the same unit list", name)
		}
	}
}

func equalDocs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestClassSplitIsExact proves the busy/sparse split, the slices and the
// serve warm share do not depend on the seed, and that every unit's
// config passes the strict simcfg parser.
func TestClassSplitIsExact(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		counts := map[string]int{}
		for _, u := range sweepUnits(seed) {
			counts[u.className()]++
			if u.busy {
				counts["busy"]++
			}
			if _, err := simcfg.ParseConfig(bytes.NewReader(u.doc)); err != nil {
				t.Fatalf("seed %d: sweep unit %s: %v", seed, u.name, err)
			}
		}
		grid := len(arbiterKinds) * len(busVariants)
		want := map[string]int{
			"busy": 2*grid + 3*len(arbiterKinds), "saturating": grid, "lclass": grid,
			"faulted": len(arbiterKinds), "lanes": len(arbiterKinds), "wide": len(arbiterKinds),
		}
		for k, n := range want {
			if counts[k] != n {
				t.Errorf("seed %d: sweep %s units = %d, want %d", seed, k, counts[k], n)
			}
		}

		kinds := map[string]int{}
		for _, u := range fabricUnits(seed) {
			kinds[u.kind]++
		}
		if kinds["sparse-chain"] != fabricSparseChains || kinds["busy-chain"] != fabricBusyChains || kinds["crossbar"] != fabricCrossbars {
			t.Errorf("seed %d: fabric split %v", seed, kinds)
		}

		for c, list := range serveJobs(seed) {
			got := map[string]int{}
			for _, j := range list {
				got[serveClassName(j)]++
			}
			for _, class := range serveClasses {
				if got[class.name] != class.cold || got["warm-"+class.name] != class.repeats {
					t.Errorf("seed %d client %d: %s cold %d warm %d, want %d and %d",
						seed, c, class.name, got[class.name], got["warm-"+class.name], class.cold, class.repeats)
				}
			}
		}
	}
}

// TestServeRepeatsNeverTargetInFlightConfigs proves cache.hit_ratio is
// exact: a repeat follows its own client's original, so the original has
// finished when the repeat is submitted, and no two cold jobs of any
// client share a simulated seed, so cold jobs never hit.
func TestServeRepeatsNeverTargetInFlightConfigs(t *testing.T) {
	owner := map[uint64]string{}
	for c, list := range serveJobs(3) {
		for i, j := range list {
			if j.repeatOf >= 0 {
				orig := list[j.repeatOf]
				if j.repeatOf >= i || orig.repeatOf >= 0 || !bytes.Equal(orig.doc, j.doc) || orig.replicas != j.replicas {
					t.Fatalf("client %d job %d: repeat of %d is not an exact repeat of an earlier cold job", c, i, j.repeatOf)
				}
				continue
			}
			cfg, err := simcfg.ParseConfig(bytes.NewReader(j.doc))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < j.replicas; r++ {
				key := cfg.Seed + uint64(r)
				if prev, dup := owner[key]; dup {
					t.Fatalf("client %d job %d: seed %d already simulated by %s", c, i, key, prev)
				}
				owner[key] = serveClients[c].name
			}
		}
	}
}

// TestCorruptedFingerprintCountsAsFailure proves the gate registers a
// wrong fingerprint as a failed unit, on each path that compares one.
func TestCorruptedFingerprintCountsAsFailure(t *testing.T) {
	s := &sweep{seed: defaultSeed}
	ref, err := s.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.verify(&ref); err != nil || len(ref.bad) != 0 {
		t.Fatalf("clean reference: %d failed units, %v", len(ref.bad), err)
	}
	bad := ref
	bad.prints = append([]uint64(nil), ref.prints...)
	bad.prints[sweepNaiveSample] ^= 1
	if err := s.verify(&bad); err != nil || len(bad.bad) != 1 {
		t.Errorf("corrupted reference: %d failed units, %v; want 1", len(bad.bad), err)
	}
	pass := ref
	pass.prints, pass.bad = bad.prints, nil
	markMismatches(&pass, ref.prints)
	if len(pass.bad) != 1 {
		t.Errorf("corrupted pass: %d failed units, want 1", len(pass.bad))
	}
	if n := pinnedMismatch("sweep", defaultSeed, bad.prints); n != 1 {
		t.Errorf("corrupted digest: pinnedMismatch = %d, want 1", n)
	}
}

// TestEndToEndUsesEachUnitsBestRepeat proves the timing metrics come
// from each unit's fastest repeat: a pass slowed throughout moves none of
// them, jobs_per_s is set by the busiest client, and only setup_s is a
// median over passes.
func TestEndToEndUsesEachUnitsBestRepeat(t *testing.T) {
	ms := time.Millisecond
	pass := func(setup, scale time.Duration) passResult {
		return passResult{setup: setup, samples: []unitSample{
			{busy: true, cycles: 4e6, client: 0, lat: 4 * ms * scale},
			{busy: false, cycles: 1e6, client: 0, lat: 1 * ms * scale},
			{busy: false, cycles: 3e6, client: 1, lat: 2 * ms * scale},
		}}
	}
	var r runStats
	r.add(pass(3*ms, 1))
	r.add(pass(1*ms, 2))
	r.add(pass(2*ms, 3))
	got := r.endToEnd()
	want := map[string]float64{
		"setup_s":              0.002,
		"busy_mcycles_per_s":   1000,
		"sparse_mcycles_per_s": 4e6 / 3e-3 / 1e6,
		"jobs_per_s":           3 / 5e-3,
		"job_ms_p50":           2,
		"job_ms_p90":           3.6,
	}
	for name, w := range want {
		if g := got[name].Value; g < w*(1-1e-9) || g > w*(1+1e-9) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

// TestPinnedDigests proves each workload still reproduces, at the
// default seed, the results pinned when the benchmark was defined.
func TestPinnedDigests(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloadOrder {
		b, err := workloads[wl](defaultSeed, dir)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.pass(nil)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(p.bad) != 0 {
			t.Errorf("%s: %d failed units", wl, len(p.bad))
		}
		if got := digest(p.prints); got != pinnedDigests[wl] {
			t.Errorf("%s digest %#016x, pinned %#016x", wl, got, pinnedDigests[wl])
		}
	}
}

// TestReportsEveryDeclaredMetric runs both modes briefly and checks the
// result lines carry exactly the metrics BENCHMARK.json declares.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	check := func(mode string, rep report, want []struct{ Name, Unit string }) {
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 100 {
			t.Errorf("%s: correct %v, failed %d of %d", mode, rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", mode, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rep.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", mode, m.Name, got, m.Unit)
			}
		}
	}
	rep, err := runEndToEnd("fabric", 5, time.Second, dir, dir+"/fabric")
	if err != nil {
		t.Fatal(err)
	}
	check("end-to-end", rep, spec.EndToEnd)
	rep, err = runTraced("fabric", 5, time.Second, dir, dir+"/fabric")
	if err != nil {
		t.Fatal(err)
	}
	check("traced", rep, spec.PerLayer)
	if _, err := os.Stat(dir + "/fabric.trace.json"); err != nil {
		t.Errorf("traced run wrote no Chrome trace: %v", err)
	}
}
