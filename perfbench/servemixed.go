package main

// serve-mixed: the analysis daemon over loopback HTTP, warm-restarted from a
// populated record store. A closed-loop session sends Zipf-skewed reads
// over a working set across four endpoints and configurations, plus a
// seeded share of fresh submissions that miss, solve a small program, and
// write a record. serve, persist and the solve cache do most of the work;
// the solver does little.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	// serveWorkingSet is 3/4 of the daemon's default MaxPrograms (128): the
	// working set fits on its own, but the fresh submissions push the FIFO
	// cache past capacity and evict the oldest programs with all their
	// configurations, so the Zipf tail is re-solved. Cache sizing and
	// eviction policy move the hit ratio; the solver moves the misses.
	serveWorkingSet = 96
	// The write share and the Zipf exponent are assumptions: no traffic
	// data from real callers is in the repository. The write share was
	// chosen for where it puts the percentiles: with the evictions the
	// fresh submissions cause, about a quarter of all requests miss (a FIFO
	// simulation and the measured hit ratio agree), so p50 lands among the
	// hits and p90 among the misses, each well inside its mode.
	serveWriteShare = 0.05
	serveZipfS      = 1.1
	serveSetupReps  = 3
	serveWarmUp     = 3000 // untimed requests before the timed phase
	serveSlice      = 1000 // requests per throughput and latency slice
	serveCheckEvery = 2500 // requests between checkpoints
)

// serveConfigs are the invariant configurations the traffic asks for, by
// wire name.
var serveConfigs = []struct {
	name string
	cfg  invariant.Config
}{{"all", invariant.All()}, {"baseline", invariant.Config{}}, {"pa", invariant.Config{PA: true}},
	{"ctx-pwc", invariant.Config{Ctx: true, PWC: true}}}

// Reads rotate over the four endpoints, as the daemon's own load generator
// (internal/serve/loadgen.go) does; configurations are drawn uniformly.
var serveEndpoints = []string{"/analyze", "/pointsto", "/cfi-targets", "/invariants"}

type ptQuery struct{ fn, reg string }

// Registers every program of a kind has ("" = the function's return).
var (
	randomQueries = []ptQuery{{"put", "%s"}, {"put", "%v"}, {"pick", "%p"}, {"pick", ""}, {"cb0", "%p"}}
	scaledQueries = []ptQuery{{"sput", "%s"}, {"sput", "%v"}, {"unit0", "%x"}, {"unit1", ""}, {"scb0", "%p"}}
)

type serveProgram struct {
	src     string
	queries []ptQuery
}

// The working set's load shape is the same for every seed: the larger
// ScaledPrograms sit at fixed popularity ranks (working-set index = Zipf
// rank) with fixed sizes in units, and the generated small programs are
// ranked by a fixed permutation of their size order. The seed changes which
// programs are served, not how much work the popular ones cost.
var serveScaledRanks = map[int]int{8: 8, 24: 11, 48: 13, 80: 16}

func serveWorkingSetOf(seed int64) []serveProgram {
	r := subRand(seed, 5)
	var small []string
	for len(small) < serveWorkingSet-len(serveScaledRanks) {
		small = append(small, workload.RandomProgram(r.Int63()))
	}
	sort.SliceStable(small, func(i, j int) bool { return len(small[i]) < len(small[j]) })
	shape := rand.New(rand.NewSource(1)).Perm(len(small))
	progs := make([]serveProgram, serveWorkingSet)
	next := 0
	for j := range progs {
		if units, ok := serveScaledRanks[j]; ok {
			progs[j] = serveProgram{workload.ScaledProgram(r.Int63(), units), scaledQueries}
			continue
		}
		progs[j] = serveProgram{small[shape[next]], randomQueries}
		next++
	}
	return progs
}

// submission is a request body (docs/API.md).
type submission struct {
	Source string `json:"source"`
	Config string `json:"config"`
	Fn     string `json:"fn,omitempty"`
	Reg    string `json:"reg,omitempty"`
}

// answerKey identifies one distinct question; the first answer to each is
// kept for the check.
type answerKey struct {
	prog     int   // working-set index, -1 for a fresh submission
	seed     int64 // a fresh submission's program seed
	config   string
	endpoint string
	query    ptQuery
	setup    bool // answered by the daemon that populated the store
}

type serveRequest struct {
	key  answerKey
	body []byte
}

func (k answerKey) source(progs []serveProgram) string {
	if k.prog < 0 {
		return workload.RandomProgram(k.seed)
	}
	return progs[k.prog].src
}

// serveRig is a running daemon under test and its store.
type serveRig struct {
	dir      string
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	populate map[answerKey][]byte // /cfi-targets answers from the populating daemon
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// serveSetup populates a fresh store through one daemon, shuts it down, and
// warm-restarts a second daemon on the store behind a loopback listener.
func serveSetup(root string, progs []serveProgram, client *http.Client, tr *tracer) (*serveRig, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{dir: dir, populate: map[answerKey][]byte{}}
	first := serve.New(serve.Config{CacheDir: dir})
	if err := first.PersistError(); err != nil {
		return nil, err
	}
	if err := first.WaitWarm(context.Background()); err != nil {
		return nil, err
	}
	for j, p := range progs {
		for _, c := range serveConfigs {
			body, _ := json.Marshal(submission{Source: p.src, Config: c.name})
			rec := post(first, "/cfi-targets", body)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("populating program %d (%s): status %d: %s", j, c.name, rec.Code, rec.Body)
			}
			rig.populate[answerKey{prog: j, config: c.name, endpoint: "/cfi-targets", setup: true}] = rec.Body.Bytes()
		}
	}
	first.BeginDrain()
	if _, failed := first.FlushDirty(); failed > 0 {
		return nil, fmt.Errorf("populating: %d records failed to save", failed)
	}

	sp := tr.start("persist.warm_load", 0, -1)
	start := time.Now()
	rig.srv = serve.New(serve.Config{CacheDir: dir})
	if err := rig.srv.PersistError(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.base = "http://" + ln.Addr().String()
	rig.hs = &http.Server{Handler: rig.srv}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.hs.Serve(ln) }()
	for {
		resp, err := client.Get(rig.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			rig.close()
			return nil, fmt.Errorf("daemon not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	tr.finish(sp, "")
	return rig, nil
}

// close stops the listener, waits for the serving goroutine, drains the
// daemon, and removes the store.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.srv.BeginDrain()
	r.srv.FlushDirty()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// serveSession is the closed-loop client: it sends its next request only
// after the previous answer arrived.
type serveSession struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	progs   []serveProgram
	client  *http.Client
	rig     *serveRig
	tr      *tracer
	clock   *hostClock
	lat     []float64 // wall ms per request, as measured
	windows []int     // each request's host-probe window
	traced  []bool    // which requests of a traced run ran traced
	busy    time.Duration
	allocs  uint64 // heap allocated during timed requests, client and daemon
	probes  int64
	reads   int // read requests sent, for the endpoint rotation
	failed  int
	shed    int
	errs    []string

	// The first answer to each distinct question waits in pending until the
	// next checkpoint checks it; seen remembers the questions.
	seen     map[answerKey]bool
	pending  map[answerKey][]byte
	retained []float64 // live heap at each checkpoint, MB
}

func (s *serveSession) next() serveRequest {
	cfg := serveConfigs[s.r.Intn(len(serveConfigs))].name
	if s.r.Float64() < serveWriteShare {
		k := answerKey{prog: -1, seed: s.r.Int63(), config: cfg, endpoint: "/analyze"}
		body, _ := json.Marshal(submission{Source: k.source(s.progs), Config: cfg})
		return serveRequest{k, body}
	}
	k := answerKey{prog: int(s.zipf.Uint64()), config: cfg, endpoint: serveEndpoints[s.reads%len(serveEndpoints)]}
	s.reads++
	sub := submission{Source: s.progs[k.prog].src, Config: cfg}
	if k.endpoint == "/pointsto" {
		qs := s.progs[k.prog].queries
		k.query = qs[s.r.Intn(len(qs))]
		sub.Fn, sub.Reg = k.query.fn, k.query.reg
	}
	body, _ := json.Marshal(sub)
	return serveRequest{k, body}
}

func (s *serveSession) do(req serveRequest) (int, []byte, error) {
	resp, err := s.client.Post(s.rig.base+req.key.endpoint, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// warmUp sends n untimed requests: the fresh submissions need a few
// thousand requests to cycle the FIFO cache into its steady state, and a
// timed phase that started from the just-loaded working set would count
// that transient.
func (s *serveSession) warmUp(n int) {
	for i := 0; i < n; i++ {
		req := s.next()
		status, body, err := s.do(req)
		s.record(req, status, body, err)
	}
}

// record keeps the first answer to each distinct question for the check,
// and reports whether the request succeeded.
func (s *serveSession) record(req serveRequest, status int, body []byte, err error) bool {
	if err != nil || status != http.StatusOK {
		s.failed++
		if status == http.StatusServiceUnavailable {
			s.shed++
		}
		s.errs = append(s.errs, fmt.Sprintf("%s: status %d, error %v: %.200s", req.key.endpoint, status, err, body))
		return false
	}
	if !s.seen[req.key] {
		s.seen[req.key] = true
		s.pending[req.key] = body
	}
	return true
}

// checkpoint checks the pending answers and drops them, then samples the
// live heap: what the daemon retains, without the check's state. Both are
// outside request timing. A wrong answer fails the op that received it.
func (s *serveSession) checkpoint() {
	bad := checkServed(s.progs, s.pending)
	s.failed += len(bad)
	s.errs = append(s.errs, bad...)
	s.pending = map[answerKey][]byte{}
	s.retained = append(s.retained, liveHeapMB())
}

// run sends requests until they have taken budget of wall time and there
// are at least minOps of them. A request is timed in wall time, from send
// to the last byte of the answer: what the caller waits, including the
// daemon's waits for the disk.
func (s *serveSession) run(budget time.Duration) {
	phase := time.Now()
	for op := 0; (s.busy < budget || op < minOps) && time.Since(phase) < maxPhase; op++ {
		if op > 0 && op%serveCheckEvery == 0 {
			s.checkpoint()
		}
		req := s.next()
		traced := s.tr != nil && op%2 == 1
		sp := -1
		if traced {
			sp = s.tr.start("serve.request", op, -1)
		}
		w := s.clock.window()
		a0, t0 := heapAllocs(), time.Now()
		status, body, err := s.do(req)
		d := time.Since(t0)
		s.clock.count(d)
		s.allocs += heapAllocs() - a0
		s.busy += d
		s.lat = append(s.lat, ms(d))
		s.windows = append(s.windows, w)
		s.traced = append(s.traced, traced)
		if !s.record(req, status, body, err) {
			s.tr.finish(sp, req.key.endpoint)
			continue
		}
		if !traced {
			continue
		}
		attr := req.key.endpoint
		if req.key.endpoint == "/analyze" {
			var a analyzeAnswer
			if json.Unmarshal(body, &a) == nil && a.Cached {
				attr += " hit"
			} else {
				attr += " miss"
			}
		}
		s.tr.finish(sp, attr)
		if strings.HasSuffix(attr, " hit") {
			// The same cached request once more, straight into the
			// handler: no client, no transport.
			hsp := s.tr.start("serve.handler", op, -1)
			rec := post(s.rig.srv, req.key.endpoint, req.body)
			s.tr.finish(hsp, "")
			s.probes++
			if rec.Code != http.StatusOK {
				s.errs = append(s.errs, fmt.Sprintf("handler probe %s: status %d", req.key.endpoint, rec.Code))
			}
		}
	}
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	root := filepath.Join(cfg.workdir, "serve")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	progs := serveWorkingSetOf(cfg.seed)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	var tr *tracer
	if cfg.traced {
		tr = newTracer(cfg.clock)
		out.tracer = tr
	}
	var prev *serveRig
	rig, setupS, err := timeSetup(cfg.clock, serveSetupReps, func() (*serveRig, error) {
		if prev != nil {
			if err := prev.close(); err != nil {
				return nil, err
			}
		}
		r, err := serveSetup(root, progs, client, tr)
		prev = r
		return r, err
	})
	if err != nil {
		if prev != nil {
			prev.close()
		}
		return nil, err
	}
	m["setup_s"] = setupS
	if tr != nil {
		if err := persistProbes(tr, rig.dir, root, m); err != nil {
			rig.close()
			return nil, err
		}
	}

	r := subRand(cfg.seed, 10)
	s := &serveSession{r: r, zipf: rand.NewZipf(r, serveZipfS, 1, serveWorkingSet-1),
		progs: progs, client: client, rig: rig, tr: tr, clock: cfg.clock, seen: map[answerKey]bool{}, pending: maps.Clone(rig.populate)}
	s.warmUp(serveWarmUp)
	s.checkpoint()
	s.retained = nil
	metrics := rig.srv.Metrics()
	hits0, misses0 := metrics.Counter("serve/cache/hits").Value(), metrics.Counter("serve/cache/misses").Value()
	s.run(cfg.seconds)
	cfg.clock.probe() // closes the last request's window
	s.checkpoint()
	hits := metrics.Counter("serve/cache/hits").Value() - hits0 - s.probes
	misses := metrics.Counter("serve/cache/misses").Value() - misses0

	out.attempted, out.failed = len(s.lat)+serveWarmUp, s.failed
	m["serve.shed"] = float64(s.shed)
	for _, e := range s.errs {
		out.mismatch("%s", e)
	}
	targets, sites := 0, 0
	for _, body := range rig.populate {
		var a cfiAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		for _, site := range a.Sites {
			targets += len(site.Optimistic)
			sites++
		}
	}
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: hit ratio %.3f of %d lookups; unscaled p50 %.3f ms, p90 %.3f ms\n",
		float64(hits)/float64(max(hits+misses, 1)), hits+misses, quantile(s.lat, 0.5), quantile(s.lat, 0.9))

	lat := cfg.clock.scaled(s.lat, s.windows)
	m["ops_per_s"] = sliceRate(lat, serveSlice)
	m["p50_ms"] = sliceQuantile(lat, serveSlice, 0.5)
	m["p90_ms"] = sliceQuantile(lat, serveSlice, 0.9)
	m["retained_mb"] = median(s.retained)
	m["alloc_mb"] = float64(s.allocs) / float64(len(s.lat)) / mib
	if sites > 0 {
		m["cfi_targets_avg"] = float64(targets) / float64(sites)
	}
	if tr != nil {
		m["serve.lookups"] = float64(hits + misses)
		if hits+misses > 0 {
			m["serve.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		ls := tr.layers()
		byAttr := map[string][]float64{}
		if l := ls["serve.request"]; l != nil {
			for i, attr := range l.attrs {
				endpoint, cache, _ := strings.Cut(attr, " ")
				byAttr[endpoint] = append(byAttr[endpoint], l.wall[i])
				if cache != "" {
					byAttr[cache] = append(byAttr[cache], l.wall[i])
				}
			}
		}
		m["serve.hit_ms"] = median(byAttr["hit"])
		m["serve.miss_ms"] = median(byAttr["miss"])
		m["serve.analyze_ms"] = median(byAttr["/analyze"])
		m["serve.pointsto_ms"] = median(byAttr["/pointsto"])
		m["serve.cfi_targets_ms"] = median(byAttr["/cfi-targets"])
		m["serve.invariants_ms"] = median(byAttr["/invariants"])
		m["serve.handler_hit_ms"] = ls.wallP50("serve.handler")
		m["persist.load_ms"] = ls.rawWallP50("persist.load")
		m["persist.save_ms"] = ls.rawWallP50("persist.save")
		m["persist.warm_load_s"] = ls.rawWallP50("persist.warm_load") / 1000
		tracingOverhead(m, lat, s.traced)
	}
	return out, nil
}

// persistProbes times the record store directly: every record of the
// populated store loaded, then saved into a scratch store. The store's
// times, like the warm restart's, are wall time as measured, not scaled by
// the host probe: waiting for the disk is what they are about, and the
// probe measures the CPU and memory, not the disk.
func persistProbes(tr *tracer, dir, root string, m map[string]float64) error {
	st, err := persist.Open(dir, nil)
	if err != nil {
		return err
	}
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(root, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	dst, err := persist.Open(scratch, nil)
	if err != nil {
		return err
	}
	total := 0
	for i, k := range keys {
		sp := tr.start("persist.load", i, -1)
		payload, err := st.Load(k)
		tr.finish(sp, "")
		if err != nil {
			return err
		}
		total += len(payload)
		sp = tr.start("persist.save", i, -1)
		err = dst.Save(k, payload)
		tr.finish(sp, "")
		if err != nil {
			return err
		}
	}
	m["persist.records"] = float64(len(keys))
	if len(keys) > 0 {
		m["persist.bytes_per_record"] = float64(total) / float64(len(keys))
	}
	return nil
}

// checkServed compares every distinct answer with an in-process analysis of
// the same source and configuration, and returns one line per wrong answer.
func checkServed(progs []serveProgram, answers map[answerKey][]byte) []string {
	groups := map[[2]string][]answerKey{}
	for k := range answers {
		id := [2]string{k.source(progs), k.config}
		groups[id] = append(groups[id], k)
	}
	var bad []string
	for id, keys := range groups {
		bad = append(bad, checkGroup(id[0], id[1], keys, answers)...)
	}
	return bad
}

func checkGroup(src, config string, keys []answerKey, answers map[answerKey][]byte) []string {
	m, err := minic.Compile("reference", src)
	if err != nil {
		return []string{fmt.Sprintf("reference compile: %v", err)}
	}
	var cfg invariant.Config
	for _, c := range serveConfigs {
		if c.name == config {
			cfg = c.cfg
		}
	}
	sys, err := core.AnalyzeCtx(context.Background(), m, cfg, core.AnalyzeOpts{})
	if err != nil {
		return []string{fmt.Sprintf("reference analysis: %v", err)}
	}
	ref := newReference(src, sys)
	var bad []string
	for _, k := range keys {
		body := answers[k]
		var msgs []string
		var err error
		switch k.endpoint {
		case "/analyze":
			var a analyzeAnswer
			if err = json.Unmarshal(body, &a); err == nil {
				msgs = ref.checkAnalyze(a)
			}
		case "/pointsto":
			var a pointstoAnswer
			if err = json.Unmarshal(body, &a); err == nil {
				msgs = ref.checkPointsTo(a)
			}
		case "/cfi-targets":
			var a cfiAnswer
			if err = json.Unmarshal(body, &a); err == nil {
				msgs = ref.checkCFI(a)
			}
		case "/invariants":
			var a invariantsAnswer
			if err = json.Unmarshal(body, &a); err == nil {
				msgs = ref.checkInvariants(a)
			}
		}
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("undecodable answer: %v", err))
		}
		if len(msgs) > 0 {
			bad = append(bad, fmt.Sprintf("%s prog %d seed %d config %s: %s",
				k.endpoint, k.prog, k.seed, k.config, strings.Join(msgs, "; ")))
		}
	}
	return bad
}
