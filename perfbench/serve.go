package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"lotterybus/internal/obs"
	"lotterybus/internal/prng"
	"lotterybus/internal/serve"
	"lotterybus/internal/simcfg"
)

// The serve workload: lotteryd's job server (serve.Server behind the
// same mux cmd/lotteryd mounts) on loopback, with its WAL and disk
// cache in fresh temp dirs. Two closed-loop clients with unequal
// tickets each submit a job, follow its event stream to the terminal
// event, then submit the next. A unit is one job, timed from the POST to
// the terminal stream event. Every pass starts a fresh server, so every
// pass sees the same cold/warm split; the set-up is serve.New up to the
// first /readyz 200.
//
// Each client's list holds cold jobs (sparse, busy, and busy replicated
// through the lane engine) and exact repeats of the same client's
// earlier, finished jobs. Cold configs never share a cache key, so a
// repeat is the only cache hit and never waits on an in-flight job.

const (
	serveSparseCycles = 100_000
	serveBusyCycles   = 60_000
	serveLaneCycles   = 30_000
	serveLanes        = 4
)

// serveClient is one closed-loop client and its admission tickets.
type serveClient struct {
	name    string
	tickets uint64
}

var serveClients = []serveClient{{"alice", 3}, {"bob", 1}}

// serveClass is one kind of cold job, with how many cold jobs and how
// many repeats of it each client issues.
type serveClass struct {
	name          string
	busy          bool
	cold, repeats int
}

// serveClasses fixes each client's list: 96 cold jobs and 64 repeats
// (40%) out of 160. Sorted by latency, repeats (about 1 ms) fill the
// bottom 40%, cold sparse jobs the next 35% and cold busy jobs the top
// 25%, so the p50 falls inside the cold sparse mode and the p90 inside
// the busy one.
var serveClasses = []serveClass{
	{"sparse", false, 56, 40},
	{"busy", true, 24, 12},
	{"lanes", true, 16, 12},
}

// serveJob is one job of a client's list.
type serveJob struct {
	class    string
	busy     bool
	repeatOf int // index of the repeated job in the client's list; -1 = cold
	replicas int
	cycles   int64 // simulated cycles over all replicas
	doc      []byte
	body     []byte
}

// serveJobs derives every client's job list from seed. The class split
// and the repeat share are exact; the seed draws configs, seeds and the
// order.
func serveJobs(seed uint64) [][]serveJob {
	rng := prng.NewSplitMix64(prng.Derive(seed, "perfbench/serve"))
	// Cold job k of client c simulates seeds base+c<<12+k<<3+1 .. +replicas:
	// disjoint across jobs, so no two cold jobs share a cache key.
	base := prng.Derive(seed, "perfbench/serve/seeds") >> 24 << 16
	lists := make([][]serveJob, len(serveClients))
	for c, cl := range serveClients {
		var cold []serveJob
		var classOf []int // class index of each cold job
		for ci, class := range serveClasses {
			for k := 0; k < class.cold; k++ {
				cold = append(cold, coldServeJob(class, len(cold), rng))
				classOf = append(classOf, ci)
			}
		}
		for i := range cold {
			cold[i].setSeed(base + uint64(c)<<12 + uint64(i)<<3 + 1)
		}
		shuffle(len(cold), rng, func(i, j int) {
			cold[i], cold[j] = cold[j], cold[i]
			classOf[i], classOf[j] = classOf[j], classOf[i]
		})
		// Repeats target distinct cold jobs of their class and are placed
		// after their target: key 2p orders cold job p, key 2q+1 (q >= p)
		// a repeat of it.
		type keyed struct {
			key    int
			job    serveJob
			target int // cold position of the repeated job; -1 = cold
		}
		var all []keyed
		for p, j := range cold {
			all = append(all, keyed{2 * p, j, -1})
		}
		for ci, class := range serveClasses {
			var pos []int
			for p := range cold {
				if classOf[p] == ci {
					pos = append(pos, p)
				}
			}
			shuffle(len(pos), rng, func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
			for _, p := range pos[:class.repeats] {
				q := p + int(rng.Uint64()%uint64(len(cold)-p))
				all = append(all, keyed{2*q + 1, cold[p], p})
			}
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
		at := make(map[int]int, len(cold)) // cold position -> list index
		list := make([]serveJob, len(all))
		for i, k := range all {
			list[i] = k.job
			list[i].repeatOf = -1
			if k.target < 0 {
				at[k.key/2] = i
			} else {
				list[i].repeatOf = at[k.target]
			}
			list[i].body = jobBody(cl.name, list[i])
		}
		lists[c] = list
	}
	return lists
}

// coldServeJob builds the k-th cold job's config (seed set later).
func coldServeJob(class serveClass, k int, rng *prng.SplitMix64) serveJob {
	kind := arbiterKinds[k%len(arbiterKinds)]
	j := serveJob{class: class.name, busy: class.busy, replicas: 1}
	var cfg *simcfg.SimConfig
	switch class.name {
	case "sparse":
		sparse := []string{"light", "lclass-bursty"}
		cfg = unitConfig(kind, mixByName(sparse[k%len(sparse)]), sweepMasters, serveSparseCycles, rng)
	case "busy":
		cfg = unitConfig(kind, mixByName("saturating"), sweepMasters, serveBusyCycles, rng)
	default:
		cfg = unitConfig(kind, mixByName("saturating"), sweepMasters, serveLaneCycles, rng)
		j.replicas = serveLanes
	}
	j.cycles = cfg.Cycles * int64(j.replicas)
	j.doc, _ = json.Marshal(cfg)
	return j
}

// setSeed rewrites the job's config seed.
func (j *serveJob) setSeed(seed uint64) {
	var cfg simcfg.SimConfig
	if err := json.Unmarshal(j.doc, &cfg); err != nil {
		panic(err) // doc was marshalled from a SimConfig
	}
	cfg.Seed = seed
	j.doc, _ = json.Marshal(&cfg)
}

// serveClassName labels a job's latency class.
func serveClassName(j serveJob) string {
	if j.repeatOf >= 0 {
		return "warm-" + j.class
	}
	return j.class
}

func jobBody(client string, j serveJob) []byte {
	b, _ := json.Marshal(serve.JobRequest{
		Client:    client,
		Replicate: j.replicas,
		Lanes:     j.replicas > 1,
		Config:    j.doc,
	})
	return b
}

type serveBench struct {
	tmp  string
	jobs [][]serveJob
}

func newServe(seed uint64, tmp string) (bench, error) {
	return &serveBench{tmp: tmp, jobs: serveJobs(seed)}, nil
}

// server is one running job server and the HTTP client that drives it.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startServer builds the server over dir, listens on loopback and waits
// for the first /readyz 200.
func startServer(dir string) (*server, error) {
	tickets := map[string]uint64{}
	for _, c := range serveClients {
		tickets[c.name] = c.tickets
	}
	reg := obs.NewRegistry()
	health := obs.NewHealth()
	srv, err := serve.New(serve.Options{
		CacheDir: filepath.Join(dir, "cache"),
		DataDir:  filepath.Join(dir, "data"),
		Tickets:  tickets,
		Registry: reg,
		Health:   health,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.Handle("/", obs.NewHandler(obs.ServeConfig{Registry: reg, Health: health}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Abort()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     len(serveClients),
				MaxIdleConnsPerHost: len(serveClients),
			},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	deadline := obs.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if obs.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready: %v", err)
		}
	}
}

// stop drains the job server, shuts the listener and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	ok      bool
	lat     time.Duration
	submit  time.Duration
	print   uint64
	hits    int
	reason  string
	spansUS map[string]int64 // from the job's trace; traced runs only
}

func (w *serveBench) pass(lr *layers) (passResult, error) {
	var p passResult
	dir, err := os.MkdirTemp(w.tmp, "serve-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	t0 := obs.Now()
	s, err := startServer(dir)
	if err != nil {
		return p, err
	}
	p.setup = obs.Now().Sub(t0)
	outs := make([][]jobOutcome, len(serveClients))
	start := obs.Now()
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = make([]jobOutcome, len(w.jobs[c]))
			for i := range w.jobs[c] {
				outs[c][i] = s.runJob(&w.jobs[c][i], lr, trackServe+c)
			}
		}(c)
	}
	wg.Wait()
	p.wall = obs.Now().Sub(start)
	if err := s.stop(); err != nil {
		return p, fmt.Errorf("stopping server: %w", err)
	}
	var hits, replicas int
	for c, list := range w.jobs {
		for i, j := range list {
			o := outs[c][i]
			if j.repeatOf >= 0 && o.ok && o.print != outs[c][j.repeatOf].print {
				o.ok, o.reason = false, "repeat fingerprint differs from its original"
			}
			if !o.ok {
				fmt.Printf("serve gate: %s job %d: %s\n", serveClients[c].name, i, o.reason)
				p.fail(len(p.prints))
			}
			p.samples = append(p.samples, unitSample{class: serveClassName(j), busy: j.busy, cycles: j.cycles, client: c, lat: o.lat})
			p.prints = append(p.prints, o.print)
			hits += o.hits
			replicas += j.replicas
			if lr != nil {
				recordServeJob(lr, o)
			}
		}
	}
	if lr != nil {
		lr.addRatio("cache.hit_ratio", "ratio", float64(hits), float64(replicas))
	}
	return p, nil
}

// serveSpans maps the server's span names to per-layer metrics.
var serveSpans = map[string]string{
	"admit":            "serve.admit_us",
	"wal_accept":       "serve.wal_accept_us",
	"stream_flush":     "serve.stream_flush_us",
	"queue_wait":       "serve.queue_wait_us",
	"lottery_draw":     "serve.lottery_draw_us",
	"cache_probe":      "serve.cache_probe_us",
	"simulate":         "serve.simulate_us",
	"snapshot_publish": "serve.snapshot_publish_us",
	"wal_end":          "serve.wal_end_us",
}

// recordServeJob files one job's client-side submit time and its server
// span totals. Spans are whole microseconds, so they are reported as the
// mean per job that has the span rather than a median of integers.
func recordServeJob(lr *layers, o jobOutcome) {
	lr.sample("serve.submit_ms", float64(o.submit.Nanoseconds())/1e6)
	for span, name := range serveSpans {
		if us, ok := o.spansUS[span]; ok {
			lr.addRatio(name, "us", float64(us), 1)
		}
	}
}

// streamEvent is the part of a job stream event the client reads.
type streamEvent struct {
	Event       string `json:"event"`
	Replica     int    `json:"replica"`
	Fingerprint string `json:"fingerprint"`
	Source      string `json:"source"`
	Reason      string `json:"reason"`
}

// runJob submits j and follows its stream to the terminal event.
func (s *server) runJob(j *serveJob, lr *layers, track int) jobOutcome {
	t0 := obs.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return jobOutcome{lat: obs.Now().Sub(t0), reason: err.Error()}
	}
	var st serve.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		return jobOutcome{lat: obs.Now().Sub(t0), reason: fmt.Sprintf("submit: HTTP %d", resp.StatusCode)}
	}
	o := jobOutcome{submit: obs.Now().Sub(t0), reason: "stream ended before a terminal event"}
	resp, err = s.client.Get(s.base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return jobOutcome{lat: obs.Now().Sub(t0), reason: err.Error()}
	}
	prints := make([]uint64, j.replicas)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.reason = "bad stream event: " + err.Error()
			break
		}
		if ev.Event == "replica_done" && ev.Replica >= 0 && ev.Replica < j.replicas {
			prints[ev.Replica], _ = strconv.ParseUint(ev.Fingerprint, 16, 64)
			if ev.Source != "computed" {
				o.hits++
			}
		}
		if ev.Event == "done" || ev.Event == "failed" || ev.Event == "canceled" {
			o.lat = obs.Now().Sub(t0)
			o.ok = ev.Event == "done"
			o.reason = ev.Event + " " + ev.Reason
			break
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if o.lat == 0 {
		o.lat = obs.Now().Sub(t0)
	}
	o.print = fnvOffset
	for _, p := range prints {
		o.print = fnvMix(o.print, p)
	}
	if lr != nil {
		lr.tr.AddSpan("serve.job", nil, track, t0, o.lat, map[string]any{"id": st.ID, "class": j.class, "repeat": j.repeatOf >= 0})
		o.spansUS = s.jobSpans(st.ID)
	}
	return o
}

// jobSpans folds the job's span tree (GET /v1/jobs/{id}/trace) into
// per-name totals. The server writes the terminal WAL record just after
// the terminal event, so the fetch retries briefly until wal_end shows.
func (s *server) jobSpans(id string) map[string]int64 {
	var totals map[string]int64
	for try := 0; try < 50; try++ {
		resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/trace")
		if err != nil {
			return totals
		}
		var ct struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Dur  int64  `json:"dur"`
			} `json:"traceEvents"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ct)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return totals
		}
		totals = map[string]int64{}
		for _, e := range ct.TraceEvents {
			totals[e.Name] += e.Dur
		}
		if _, ok := totals["wal_end"]; ok {
			return totals
		}
		time.Sleep(time.Millisecond)
	}
	return totals
}

// serveVerifyStride picks the cold jobs the gate re-runs in process.
const serveVerifyStride = 8

// verify re-runs every serveVerifyStride-th cold job of each client in
// process, straight through simcfg, and compares the fingerprints the
// server streamed in the reference pass.
func (w *serveBench) verify(ref *passResult) error {
	offset := 0
	for c, list := range w.jobs {
		n := 0
		for i, j := range list {
			if j.repeatOf >= 0 {
				continue
			}
			if n++; n%serveVerifyStride != 0 {
				continue
			}
			fp := uint64(fnvOffset)
			for r := 0; r < j.replicas; r++ {
				cfg, err := simcfg.ParseConfig(bytes.NewReader(j.doc))
				if err != nil {
					return err
				}
				cfg.Seed += uint64(r)
				sys, err := cfg.Build()
				if err != nil {
					return err
				}
				if err := sys.Run(cfg.Cycles); err != nil {
					return err
				}
				fp = fnvMix(fp, sys.Collector().Fingerprint())
			}
			if fp != ref.prints[offset+i] {
				fmt.Printf("serve gate: %s job %d: server fingerprint %#x, in-process %#x\n",
					serveClients[c].name, i, ref.prints[offset+i], fp)
				ref.fail(offset + i)
			}
		}
		offset += len(list)
	}
	return nil
}
