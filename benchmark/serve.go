package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
)

// serve_mixed: open-loop traffic at `serve -coordinator` fronting two
// `serve` workers, each with -max-inflight 1, -cache-mem 1 (MiB) and
// -cache-dir on the default store backend. Poisson arrivals carry /run
// hits drawn Zipf-wise over a population built in set-up that is larger
// than the two workers' in-memory cache layers together, and a small
// share of /query range scans; cold /run misses at the length the
// cluster smoke test sends through the coordinator (simulation, cache
// put, catalog ingest) arrive on a fixed spacing. A base-rate phase gives
// the latency figures and, from its misses, the workers' simulation
// speed; a fixed ladder of rates gives the SLO rate; a saturation phase
// of hits and scans gives the serving path's capacity. README.md gives
// the source of each figure.

const (
	serveWorkers = 2
	serveMemMiB  = 1    // the smallest memory layer serve accepts
	popSize      = 2400 // ~1.5x the entries two 1 MiB memory layers hold
	popChunks    = 8
	fleetReps    = 5 // fleet start-ups in set-up; setup_s takes the median
	// Population lengths are short so set-up stays affordable: a hit's
	// cost does not depend on the length of the run it answers (the
	// stored result and the summary have the same fields at any length).
	popInstsLo = 500
	popInstsHi = 1500
	// missInsts is the /run length scripts/cluster_smoke.sh sends through
	// the coordinator; miss k asks for missInsts+k instructions, so no
	// miss is in the population or repeats another.
	missInsts = 100_000
	// missEvery spaces the misses so a miss normally finds no other miss
	// running: its latency is its own simulation plus one hop.
	missEvery = 500 * time.Millisecond
	hitShare  = 0.95 // of the Poisson arrivals; the rest are /query scans
	zipfS     = 1.1

	serveBaseRate = 150.0 // Poisson requests per second in the base phase
	// serveLimitMs is the SLO limit on the /run hit tail: serve's default
	// -queue-wait, past which the worker sheds a queued request anyway.
	serveLimitMs = 250.0
	satRate      = 4000.0 // offered rate of the saturation phase

	serveToolInsts = 1_000_000 // cmd/serve -insts default: the traced config's length
	satSlice       = time.Second
	warmup         = 1500 * time.Millisecond

	// Shares of the measured seconds: the base chunks together, each
	// ladder rung, the saturation bursts together.
	baseShare = 0.4
	rungShare = 0.04
	satShare  = 0.4
)

// serveLadder is the fixed ladder of offered rates (requests per second).
var serveLadder = []float64{300, 600, 900, 1200, 1500}

// phase is a phase's duration: share of the measured seconds.
func (e *env) phase(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

var servePolicies = []string{"none", "toggle1", "toggle2", "M", "P", "PI", "PID", "throttle", "specctl", "mPI", "mPID", "fscale", "vfscale"}

const (
	kindHit = iota
	kindMiss
	kindQuery
)

var kindNames = []string{"hit", "miss", "query"}

// tuple is one /run request's (bench, policy, insts) and its cache key.
type tuple struct {
	bench, policy string
	insts         uint64
	key           string
}

// config builds the simulation config a worker builds for the tuple.
func (t tuple) config() (sim.Config, error) {
	prof, err := bench.ByName(t.bench)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{Workload: prof, MaxInsts: t.insts}
	return cfg, bench.ApplyPolicy(&cfg, t.policy, 0)
}

func (t tuple) path() string {
	return fmt.Sprintf("/run?bench=%s&policy=%s&insts=%d", t.bench, t.policy, t.insts)
}

func newTuple(b, p string, insts uint64) (tuple, error) {
	t := tuple{bench: b, policy: p, insts: insts}
	cfg, err := t.config()
	if err != nil {
		return t, err
	}
	key, ok := sim.CacheKey(cfg)
	if !ok {
		return t, fmt.Errorf("%s/%s is not cacheable", b, p)
	}
	t.key = key
	return t, nil
}

// proc is one started serve process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan error
}

func startProc(bin, name, logPath string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The fleet must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan error, 1)}
	go func() {
		p.done <- cmd.Wait()
		lf.Close()
	}()
	return p, nil
}

// stop interrupts the process (graceful drain), kills it if it has not
// exited after ten seconds, and waits for it.
func (p *proc) stop() {
	// A failed signal means the process has already exited; the wait
	// below still reaps it.
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // as above: the wait reaps it either way
		<-p.done
	}
}

// fleet is one coordinator plus workers.
type fleet struct {
	root    string // cache directories and process logs
	coord   string
	workers []string // base URLs
	dirs    []string
	procs   []*proc // running processes
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
	f.procs = nil
}

// logs returns every process log, for error reports.
func (f *fleet) logs() string {
	var b strings.Builder
	for _, p := range f.procs {
		data, _ := os.ReadFile(p.log)
		fmt.Fprintf(&b, "--- %s\n%s", p.name, data)
	}
	return b.String()
}

func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// planFleet picks the fleet's ports and cache directories under root. The
// ports stay fixed across restarts: cache ownership follows the workers'
// URLs.
func planFleet(root string) (*fleet, error) {
	ports, err := freePorts(serveWorkers + 1)
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: fmt.Sprintf("http://127.0.0.1:%d", ports[serveWorkers]), root: root}
	for i := 0; i < serveWorkers; i++ {
		f.workers = append(f.workers, fmt.Sprintf("http://127.0.0.1:%d", ports[i]))
		f.dirs = append(f.dirs, filepath.Join(root, fmt.Sprintf("worker%d", i)))
	}
	return f, nil
}

// writeStores writes the population into each worker's cache directory,
// the share the coordinator routes to that worker, through runner.Cache
// and runindex, the way serve stores a result.
func (f *fleet) writeStores(pop []tuple, results []*sim.Result) error {
	pool, err := cluster.NewPool(f.workers, cluster.PoolConfig{}, nil, nil)
	if err != nil {
		return err
	}
	owned := make([][]int, serveWorkers)
	for i, t := range pop {
		w := pool.Owner(t.key)
		owned[w.Index] = append(owned[w.Index], i)
	}
	for w, dir := range f.dirs {
		if err := writeStore(dir, pop, results, owned[w]); err != nil {
			return err
		}
	}
	return nil
}

// start starts the workers and the coordinator and waits until every
// process answers.
func (f *fleet) start(binDir string) error {
	bin := filepath.Join(binDir, "serve")
	port := func(u string) string { return u[strings.LastIndexByte(u, ':')+1:] }
	for i := 0; i < serveWorkers; i++ {
		p, err := startProc(bin, fmt.Sprintf("worker%d", i), filepath.Join(f.root, fmt.Sprintf("worker%d.log", i)),
			"-addr", "127.0.0.1:"+port(f.workers[i]), "-cache-dir", f.dirs[i],
			"-cache-mem", fmt.Sprint(serveMemMiB), "-max-inflight", "1", "-insts", "2000")
		if err != nil {
			f.stop()
			return err
		}
		f.procs = append(f.procs, p)
	}
	p, err := startProc(bin, "coordinator", filepath.Join(f.root, "coordinator.log"),
		"-coordinator", "-addr", "127.0.0.1:"+port(f.coord),
		"-workers", strings.Join(f.workers, ","))
	if err != nil {
		f.stop()
		return err
	}
	f.procs = append(f.procs, p)
	for _, u := range append(append([]string(nil), f.workers...), f.coord) {
		if err := waitHealthy(u, 30*time.Second); err != nil {
			err = fmt.Errorf("%w\n%s", err, f.logs())
			f.stop()
			return err
		}
	}
	return nil
}

// probeClient bounds every health probe and metrics scrape, so a hung
// process fails the run instead of stalling it.
var probeClient = &http.Client{Timeout: 10 * time.Second}

func waitHealthy(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := probeClient.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v", base, limit)
}

func writeStore(dir string, pop []tuple, results []*sim.Result, idx []int) error {
	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: dir, MemBytes: serveMemMiB << 20}, nil)
	if err != nil {
		return err
	}
	catalog, err := runindex.Open(filepath.Join(dir, "catalog"), runindex.Options{})
	if err != nil {
		cache.Close()
		return err
	}
	cache.SetIngest(func(key string, res *sim.Result) { catalog.Ingest(runindex.FromResult(key, res)) })
	for _, i := range idx {
		cache.Put(pop[i].key, results[i])
	}
	if err := catalog.Close(); err != nil {
		cache.Close()
		return err
	}
	return cache.Close()
}

// trafficGen draws the request mix from the seed.
type trafficGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	rank   []int // Zipf rank -> population index
	pop    []tuple
	misses []tuple
	// Misses walk seeded permutations of the benchmarks and the policies
	// (18 and 13 long, so the pairs vary), so every run's misses cover
	// the benchmarks evenly and the speed they measure does not hinge on
	// which benchmarks the seed happened to draw.
	missBench, missPolicy []int
}

// schedule draws a phase of length d: Poisson hits and scans at rate,
// plus, with misses set, one cold miss every missEvery.
func (g *trafficGen) schedule(rate float64, d time.Duration, misses bool) ([]*request, error) {
	var reqs []*request
	for _, at := range poisson(g.rng, rate, d) {
		r := &request{due: at}
		if g.rng.Float64() < hitShare {
			i := g.rank[g.zipf.Uint64()]
			r.kind, r.tup, r.key, r.path = kindHit, i, g.pop[i].key, g.pop[i].path()
		} else {
			r.kind, r.path = kindQuery, g.query()
		}
		reqs = append(reqs, r)
	}
	for at := missEvery / 2; misses && at < d; at += missEvery {
		k := len(g.misses)
		b := bench.Names()[g.missBench[k%len(g.missBench)]]
		p := servePolicies[g.missPolicy[k%len(g.missPolicy)]]
		t, err := newTuple(b, p, uint64(missInsts+k))
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, &request{due: at, kind: kindMiss, tup: k, key: t.key, path: t.path()})
		g.misses = append(g.misses, t)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs, nil
}

// query draws one catalog range scan.
func (g *trafficGen) query() string {
	lo := popInstsLo + g.rng.Intn(popInstsHi-popInstsLo-50)
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("/query?insts=%d:%d&limit=25", lo, lo+40)
	case 1:
		return fmt.Sprintf("/query?policy=PI&insts=%d:%d&limit=25", lo, lo+200)
	default:
		b := bench.Names()[g.rng.Intn(len(bench.Names()))]
		return fmt.Sprintf("/query?bench=%s&insts=%d:%d&limit=25", b, lo, lo+300)
	}
}

// runSummary is the /run response body.
type runSummary struct {
	Cached    bool    `json:"cached"`
	Benchmark string  `json:"benchmark"`
	Policy    string  `json:"policy"`
	IPC       float64 `json:"ipc"`
	Cycles    uint64  `json:"cycles"`
	Insts     uint64  `json:"insts"`
	AvgPower  float64 `json:"avg_power"`
	AvgDuty   float64 `json:"avg_duty"`
	EmergFrac float64 `json:"emerg_frac"`
}

func (s runSummary) matches(r *sim.Result) bool {
	return s.Benchmark == r.Benchmark && s.Policy == r.Policy && s.IPC == r.IPC &&
		s.Cycles == r.Cycles && s.Insts == r.Insts && s.AvgPower == r.AvgChipPower &&
		s.AvgDuty == r.AvgDuty && s.EmergFrac == r.EmergencyFrac()
}

// phaseStats summarizes one phase's requests.
type phaseStats struct {
	n, failed, shed int
	offOwner        int       // /run answers whose cached flag disagrees with hit/miss
	all, hit        []float64 // latency from due; sheds and failures are +Inf in hit
	byKind          [3][]float64
	late            []float64
	hitTail         tail
	lateGrowthMs    float64
}

// judge classifies every request of a phase and applies the per-response
// output checks.
func (e *env) judge(reqs []*request, g *trafficGen, counted bool) phaseStats {
	var ps phaseStats
	for _, r := range reqs {
		if !r.fired {
			continue
		}
		ps.n++
		lat := r.latencyMs()
		ps.late = append(ps.late, r.lateMs())
		failed := false
		switch {
		case r.status == http.StatusTooManyRequests:
			ps.shed++
		case r.status < 200 || r.status > 299:
			failed = true
		case r.kind == kindQuery:
			var q runindex.QueryResponse
			failed = json.Unmarshal(r.body, &q) != nil || q.Workers != serveWorkers
		default:
			var s runSummary
			want := g.pop
			if r.kind == kindMiss {
				want = g.misses
			}
			t := want[r.tup]
			if err := json.Unmarshal(r.body, &s); err != nil ||
				s.Insts < t.insts || !(s.AvgDuty >= 0 && s.AvgDuty <= 1) ||
				!(s.EmergFrac >= 0 && s.EmergFrac <= 1) || !finite(s.IPC, s.AvgPower) {
				failed = true
				break
			}
			// A hit answered uncached is cluster failover (the owner was
			// marked down), not a wrong answer: counted, not failed.
			if s.Cached != (r.kind == kindHit) {
				ps.offOwner++
			}
		}
		if failed {
			ps.failed++
		}
		if counted {
			e.op(failed)
		}
		ok := !failed && r.status != http.StatusTooManyRequests
		if ok {
			ps.all = append(ps.all, lat)
			ps.byKind[r.kind] = append(ps.byKind[r.kind], lat)
		}
		if r.kind == kindHit {
			if !ok {
				lat = math.Inf(1)
			}
			ps.hit = append(ps.hit, lat)
		}
	}
	ps.hitTail = tailOf(ps.hit)
	if q := len(ps.late) / 4; q > 0 {
		ps.lateGrowthMs = median(ps.late[len(ps.late)-q:]) - median(ps.late[:q])
	}
	return ps
}

func runServe(e *env) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(e.seed)))

	// Population: distinct (bench, policy, insts) tuples, simulated once.
	t0 := time.Now()
	seen := map[string]bool{}
	var pop []tuple
	for len(pop) < popSize {
		b := bench.Names()[rng.Intn(len(bench.Names()))]
		p := servePolicies[rng.Intn(len(servePolicies))]
		t, err := newTuple(b, p, uint64(popInstsLo+rng.Intn(popInstsHi-popInstsLo)))
		if err != nil {
			return err
		}
		if !seen[t.key] {
			seen[t.key] = true
			pop = append(pop, t)
		}
	}
	// The population is simulated in popChunks equal chunks; set-up counts
	// the median chunk time per chunk.
	drawn := time.Since(t0)
	var results []*sim.Result
	var chunkSecs []float64
	for lo := 0; lo < len(pop); lo += len(pop) / popChunks {
		t1 := time.Now()
		out, err := runner.Map(ctx, runner.Options{Workers: e.workers}, pop[lo:lo+len(pop)/popChunks],
			func(ctx context.Context, t tuple) (*sim.Result, error) {
				cfg, err := t.config()
				if err != nil {
					return nil, err
				}
				return sim.RunContext(ctx, cfg)
			})
		if err != nil {
			return err
		}
		results = append(results, out...)
		chunkSecs = append(chunkSecs, time.Since(t1).Seconds())
	}
	popDur := drawn + time.Duration(median(chunkSecs)*popChunks*float64(time.Second))

	// Set-up proper: write the stores once, then start the fleet and wait
	// until every process answers, fleetReps times; the last fleet serves
	// the run. The stores are written once: removing thousands of files
	// between repetitions slowed later writes several-fold, so repeated
	// store writes measured the filesystem's backlog, not the set-up.
	f, err := planFleet(filepath.Join(e.workDir, "fleet"))
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := f.writeStores(pop, results); err != nil {
		return err
	}
	storeDur := time.Since(t1)
	defer f.stop()
	var reps []time.Duration
	for i := 0; i < fleetReps; i++ {
		t0 := time.Now()
		if err := f.start(e.binDir); err != nil {
			return err
		}
		reps = append(reps, time.Since(t0))
		if i < fleetReps-1 {
			f.stop()
		}
	}
	e.note("set-up once: population %.4g s, stores %.4g s", popDur.Seconds(), storeDur.Seconds())
	setup := e.setupTime(reps, popDur+storeDur)

	g := &trafficGen{rng: rng, pop: pop, rank: rng.Perm(len(pop)),
		missBench: rng.Perm(len(bench.Names())), missPolicy: rng.Perm(len(servePolicies))}
	g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(pop)-1))

	// Warm-up, not counted.
	warm, err := g.schedule(serveBaseRate, warmup, true)
	if err != nil {
		return err
	}
	fire(f.coord, warm, e.workers, 0)
	e.judge(warm, g, false)
	var pids []int
	for _, p := range f.procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	rss := sampleRSS(pids...)
	start, err := scrapeFleet(f)
	if err != nil {
		return err
	}

	// The measured time is one cycle per ladder rung of a base-rate chunk,
	// the rung, and a saturation burst, so each figure samples the whole
	// run and a host disturbance of a few seconds does not own one of them.
	// A rung passes when the hit tail (sheds and failures counted as
	// misses) meets the limit and generator lateness does not grow across
	// it. A saturation burst offers hits and scans far above capacity for
	// a fixed time; what completes within it is the serving path's
	// capacity. No miss runs in a burst: the misses' simulation speed is
	// sim_minst_per_s.
	var (
		base, sat []*request
		baseDelta []promSample // the base chunks' summed /metrics deltas
		rungs     []phaseStats
		slices    []float64 // saturation completions per satSlice
	)
	chunk, burst := e.phase(baseShare/float64(len(serveLadder))), e.phase(satShare/float64(len(serveLadder)))
	for _, rate := range serveLadder {
		b0, err := scrapeFleet(f)
		if err != nil {
			return err
		}
		reqs, err := g.schedule(serveBaseRate, chunk, true)
		if err != nil {
			return err
		}
		fire(f.coord, reqs, e.workers, 0)
		b1, err := scrapeFleet(f)
		if err != nil {
			return err
		}
		baseDelta = addDelta(baseDelta, b0, b1)
		base = append(base, reqs...)
		rss.mark()

		if reqs, err = g.schedule(rate, e.phase(rungShare), true); err != nil {
			return err
		}
		fire(f.coord, reqs, e.workers, 0)
		rungs = append(rungs, e.judge(reqs, g, true))
		rss.mark()

		if reqs, err = g.schedule(satRate, burst, false); err != nil {
			return err
		}
		fire(f.coord, reqs, e.workers, burst)
		n := make([]float64, int(burst/satSlice))
		for _, r := range reqs {
			if i := int(r.done / satSlice); r.fired && i < len(n) && r.status == http.StatusOK {
				n[i]++
			}
		}
		slices = append(slices, n...)
		sat = append(sat, reqs...)
		rss.mark()
	}
	bs := e.judge(base, g, true)
	ss := e.judge(sat, g, true)
	slo := sloRate(rungs)
	var completed float64
	for _, n := range slices {
		completed += n
	}
	satDur := time.Duration(len(slices)) * satSlice
	capacity := median(slices) / satSlice.Seconds()
	e.note("saturation completions per slice: %s", roundRates(slices))
	peak, err := rss.finish()
	if err != nil {
		return err
	}
	end, err := scrapeFleet(f)
	if err != nil {
		return err
	}

	// Output checks outside the timed phases: sampled /run responses equal
	// a direct sim.Run, and a cached answer equals the uncached one.
	if err := e.serveChecks(f, g, base); err != nil {
		return err
	}
	f.stop()

	// The workers' simulation speed: instructions over latency from send
	// of the base phase's cold misses.
	var missInstsSum uint64
	var missSecs float64
	for _, r := range base {
		var s runSummary
		if r.kind == kindMiss && r.status == http.StatusOK && json.Unmarshal(r.body, &s) == nil && !s.Cached {
			missInstsSum += s.Insts
			missSecs += float64(r.done-r.sent) / 1e9
		}
	}
	e.check(missSecs > 0, "no cold /run miss completed in the base phase")

	n := float64(bs.n)
	e.note("digest serve_mixed population (%d results): %s", len(pop), popDigest(pop, results))
	e.note("base-phase misses: %d insts simulated in %.3g s of miss latency (%.4g Minst/s)",
		missInstsSum, missSecs, float64(missInstsSum)/max(missSecs, 1e-9)/1e6)
	e.note("serve_p50_ms %.4g ms over %d requests at %.0f/s (generator late p99 %.3g ms)", median(bs.all), bs.n, serveBaseRate, quantile(sortedCopy(bs.late), 0.99))
	for k, name := range kindNames {
		e.note("serve_%s_tail_ms %s ms", name, tailOf(bs.byKind[k]))
	}
	e.note("serve_shed_frac %.4g (%d of %d at the base rate); failed_frac %.4g (%d of %d attempted)",
		float64(bs.shed)/n, bs.shed, bs.n, float64(e.failed)/float64(max(e.attempted, 1)), e.failed, e.attempted)
	for i, r := range rungs {
		e.note("ladder %4.0f/s: %d requests, hit tail %s ms, shed %d, failed %d, lateness growth %.3g ms",
			serveLadder[i], r.n, r.hitTail, r.shed, r.failed, r.lateGrowthMs)
	}
	e.note("serve_slo_rps %.4g (hit tail limit %g ms)", slo, serveLimitMs)
	off := bs.offOwner + ss.offOwner
	for _, r := range rungs {
		off += r.offOwner
	}
	e.note("/run answers whose cached flag disagrees with hit/miss (failover off the cache owner): %d", off)
	e.note("saturation at %.0f/s offered: %d sent, %.0f completed in %.2f s (%.4g/s), shed %d, failed %d",
		satRate, ss.n, completed, satDur.Seconds(), capacity, ss.shed, ss.failed)

	if e.trace {
		e.fleetLayers(baseDelta, start, end, bs)
		if err := e.replayStores(f, g, base); err != nil {
			return err
		}
		t := g.misses[0]
		mk := func(pol string) (sim.Config, error) {
			return tuple{bench: t.bench, policy: pol, insts: serveToolInsts}.config()
		}
		return e.simLayers(t.bench, mk, "PI")
	}
	e.set("setup_s", setup)
	e.set("sim_minst_per_s", float64(missInstsSum)/max(missSecs, 1e-9)/1e6)
	e.set("peak_rss_mib", peak)
	e.set("capacity_ops_per_s", capacity)
	return nil
}

// sloRate is the highest ladder rate meeting the hit-tail limit without
// growing lateness, interpolated toward the first failing rung by where
// the hit tail crosses the limit (so the figure moves smoothly rather than
// in whole rungs).
func sloRate(rungs []phaseStats) float64 {
	prevRate, prevTail := 0.0, 0.0
	for i, r := range rungs {
		rate := serveLadder[i]
		pass := r.hitTail.value <= serveLimitMs && r.lateGrowthMs <= serveLimitMs/2
		if !pass {
			t := math.Max(r.hitTail.value, serveLimitMs)
			if math.IsInf(t, 1) || r.lateGrowthMs > serveLimitMs/2 {
				return prevRate
			}
			return prevRate + (rate-prevRate)*(serveLimitMs-prevTail)/(t-prevTail)
		}
		prevRate, prevTail = rate, r.hitTail.value
	}
	return prevRate
}

func popDigest(pop []tuple, results []*sim.Result) string {
	d := newDigest()
	for i, t := range pop {
		d.add("%s", resultDigest(t.path(), results[i]))
	}
	return d.String()
}

// serveChecks compares sampled /run answers with direct simulation.
func (e *env) serveChecks(f *fleet, g *trafficGen, base []*request) error {
	var hits, misses []*request
	for _, r := range base {
		if r.status != http.StatusOK {
			continue
		}
		if r.kind == kindHit && len(hits) < 3 {
			hits = append(hits, r)
		}
		if r.kind == kindMiss && len(misses) < 3 {
			misses = append(misses, r)
		}
	}
	e.check(len(misses) > 0 && len(hits) > 0, "no /run hit or miss to sample")
	for _, r := range append(hits, misses...) {
		t := g.pop[r.tup]
		if r.kind == kindMiss {
			t = g.misses[r.tup]
		}
		cfg, err := t.config()
		if err != nil {
			return err
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		var s runSummary
		e.check(json.Unmarshal(r.body, &s) == nil && s.matches(res), "%s %s differs from a direct sim.Run", kindNames[r.kind], r.path)
	}
	if len(misses) > 0 {
		r := misses[0]
		again := []*request{{path: r.path}}
		fire(f.coord, again, 1, 0)
		var first, second runSummary
		e.check(again[0].status == http.StatusOK && json.Unmarshal(r.body, &first) == nil &&
			json.Unmarshal(again[0].body, &second) == nil && second.Cached && !first.Cached &&
			func() bool { first.Cached = true; return first == second }(),
			"cached answer to %s differs from the uncached one", r.path)
	}
	return nil
}
