// Command ledger is the repository benchmark: it runs one of three
// workloads shaped like the traffic the tools issue (cmd/tables,
// cmd/sweep, cmd/serve), checks the simulated outputs, and prints every
// end-to-end metric by name and unit. With --trace 1 it instead reports
// the per-layer ledger, timed from this package around calls into each
// module's public functions; nothing inside the simulator is
// instrumented. See README.md for the workloads and how to compare two
// commits.
//
//	bash benchmark/run.sh --workload tables_exact --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it start with "#" and carry the human-readable report:
// host, digests of the simulated statistics, and the figures that are
// printed but not gated (failed_frac, serve_shed_frac, serve_p50_ms, the
// latency tails, serve_slo_rps; see README.md). Metric names and units
// are read from BENCHMARK.json in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// specs is the metric declaration of BENCHMARK.json: the names and units
// the result line reports come from there and nowhere else.
type specs struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpecs reads the metric declaration from BENCHMARK.json in dir.
func loadSpecs(dir string) (specs, error) {
	var sp specs
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("BENCHMARK.json declares no end_to_end or per_layer metrics")
	}
	return sp, nil
}

var workloads = map[string]func(*env) error{
	"tables_exact": runTables,
	"sweep_gang":   runSweep,
	"serve_mixed":  runServe,
}

// env is one benchmark run: its arguments and what it has measured.
type env struct {
	name    string
	seed    uint64
	seconds float64
	trace   bool
	startup time.Duration // from the wrapper's launch to main
	specs   specs
	binDir  string
	workDir string
	workers int // simulation workers: at most the host's CPU count

	attempted, failed int64
	checkFailures     []string
	values            map[string]float64
	notes             []string
}

// set records a metric value; the unit comes from BENCHMARK.json.
func (e *env) set(name string, v float64) { e.values[name] = v }

// note adds one line to the human-readable report.
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// check records an output-check failure when ok is false.
func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.checkFailures = append(e.checkFailures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (e *env) op(failed bool) {
	e.attempted++
	if failed {
		e.failed++
	}
}

// setupReps is how many times a workload repeats its set-up; setup_s
// takes the median, so one descheduled repetition does not move it.
const setupReps = 25

// setupTime is the set-up cost reported as setup_s: process start, plus
// once (set-up work done a single time), plus the median of the
// repetitions of the workload's repeated set-up.
func (e *env) setupTime(reps []time.Duration, once time.Duration) float64 {
	ds := make([]float64, len(reps))
	for i, d := range reps {
		ds[i] = d.Seconds()
	}
	s := sortedCopy(ds)
	e.note("set-up: process start %.4g s, once %.4g s, repeated set-up median %.4g s (min %.4g, max %.4g over %d)",
		e.startup.Seconds(), once.Seconds(), quantile(s, 0.5), s[0], s[len(s)-1], len(s))
	return e.startup.Seconds() + once.Seconds() + quantile(s, 0.5)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "tables_exact | sweep_gang | serve_mixed")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 25, "measured seconds")
		trace    = flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
		startNs  = flag.Int64("start-ns", 0, "wall clock (unix ns) at which the process was launched; 0 = now")
		binDir   = flag.String("bin", "", "directory holding the serve binary (serve_mixed)")
		workDir  = flag.String("work", os.TempDir(), "scratch directory for this run")
	)
	flag.Parse()
	entered := time.Now()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ledger: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	launch := entered
	if *startNs > 0 {
		launch = time.Unix(0, *startNs)
	}
	sp, err := loadSpecs(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*workDir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	e := &env{
		name:    *workload,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		startup: entered.Sub(launch),
		specs:   sp,
		binDir:  *binDir,
		workDir: work,
		workers: runtime.NumCPU(),
		values:  map[string]float64{},
	}
	err = run(e)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	os.Exit(report(e, os.Stdout))
}

// report prints the notes and the result line and returns the exit code.
func report(e *env, w *os.File) int {
	declared := e.specs.EndToEnd
	if e.trace {
		declared = e.specs.PerLayer
	}
	out := resultOut{
		Correct:   len(e.checkFailures) == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metricOut{},
	}
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", e.name, e.seed, e.seconds, e.trace)
	fmt.Fprintf(w, "# host %s\n", hostLine())
	for _, n := range e.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	known := map[string]bool{}
	for _, s := range declared {
		known[s.Name] = true
		v, ok := e.values[s.Name]
		if !ok && !e.trace {
			fmt.Fprintf(os.Stderr, "ledger: %s did not measure %s\n", e.name, s.Name)
			return 1
		}
		// A layer the workload never reaches reports 0 (see README.md).
		out.Metrics[s.Name] = metricOut{Value: v, Unit: s.Unit}
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", s.Name, v, s.Unit)
	}
	for _, name := range sortedKeys(e.values) {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "ledger: %s measured %s, which BENCHMARK.json does not declare\n", e.name, name)
			return 1
		}
	}
	if e.attempted == 0 {
		e.checkFailures = append(e.checkFailures, "no operation was attempted")
		out.Correct = false
		out.Attempted = 1
		out.Failed = 1
	}
	for _, f := range e.checkFailures {
		fmt.Fprintf(os.Stderr, "ledger: output check failed: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// hostLine describes the machine every recorded number was measured on.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q num_cpu=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// procRSSMiB reads a live process's resident set size (VmRSS).
func procRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", fmt.Sprint(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmRSS:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kib); err != nil {
				return 0, err
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", pid)
}

// rssSampler samples the summed resident set size of the measured
// processes every 50 ms while the measurement runs. The workload marks the
// end of each round (or segment); peak_rss_mib is the highest round peak.
// A median over rounds flipped between two levels about 14% apart from
// run to run on sweep_gang; the highest round peak is the run's peak and
// varied less.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	cur   float64   // highest sample of the current round
	peaks []float64 // highest sample of each finished round
	err   error
}

func sampleRSS(pids ...int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			var sum float64
			for _, pid := range pids {
				v, err := procRSSMiB(pid)
				if err != nil {
					s.mu.Lock()
					s.err = err
					s.mu.Unlock()
					return
				}
				sum += v
			}
			s.mu.Lock()
			s.cur = max(s.cur, sum)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// mark ends a round.
func (s *rssSampler) mark() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur > 0 {
		s.peaks = append(s.peaks, s.cur)
	}
	s.cur = 0
}

// finish stops the sampler and returns the highest round peak.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	s.mark()
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Max(append(s.peaks, 0)), s.err
}

// sortedKeys returns m's keys in order (deterministic digests and notes).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
