package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/runner"
	"repro/internal/sim"
)

// tables_exact: solo cycle-exact cells in the shape cmd/tables issues —
// one benchmark from each Table 5 thermal class under no DTM, toggle1, PI
// and PID, plus one 4-core multicore face-off cell — through the runner
// engine with one worker per CPU and no cache. Rounds of the matrix repeat
// until the measured time is used up; round r runs the profiles with seed
// index (seed, r), the way experiments.SeedStudy perturbs a profile.
var (
	// Five benchmarks, four classes: with 21 cells a round, the median cell
	// falls inside one benchmark's group (gzip), not on a boundary between
	// two groups of different cost.
	tablesBenches  = []string{"gcc", "art", "mesa", "gzip", "gap"} // extreme x2, high, medium, low
	tablesPolicies = []string{"none", "toggle1", "PI", "PID"}
)

const (
	// tablesInsts is cut from cmd/tables' default so a round of 21 cells
	// fits a few seconds; the traced run uses the default, tablesToolInsts.
	tablesInsts     = 150_000
	tablesToolInsts = 2_000_000 // cmd/tables -insts default
	multicoreInsts  = 40_000    // per core
	multicoreCores  = 4
)

// goldenStep is experiments.SeedStudy's seed stride.
const goldenStep = 0x9e3779b97f4a7c15

// seedIndex is the profile-seed offset of round r of a run with seed s.
func seedIndex(s uint64, r int) uint64 { return (s<<16 + uint64(r)) * goldenStep }

// tablesCell is one cell's configuration maker (fresh controllers per call).
type tablesCell struct {
	label string
	solo  func() (sim.Config, error)
	multi func() (sim.MulticoreConfig, error)
}

func tablesRound(seed uint64, r int) []tablesCell {
	var cells []tablesCell
	for _, b := range tablesBenches {
		for _, pol := range tablesPolicies {
			b, pol := b, pol
			cells = append(cells, tablesCell{label: b + "/" + pol, solo: func() (sim.Config, error) {
				return soloConfig(b, pol, seedIndex(seed, r), tablesInsts)
			}})
		}
	}
	cells = append(cells, tablesCell{label: "hotneighbor/PID x4", multi: func() (sim.MulticoreConfig, error) {
		cfg, err := bench.NewMulticoreRun("hotneighbor", "PID", multicoreCores, multicoreInsts)
		for i := range cfg.Workloads {
			cfg.Workloads[i].Seed += seedIndex(seed, r)
		}
		return cfg, err
	}})
	return cells
}

// soloConfig is a cmd/tables cell: a named benchmark with its profile seed
// offset by off, under a named policy.
func soloConfig(benchName, policy string, off, insts uint64) (sim.Config, error) {
	prof, err := bench.ByName(benchName)
	if err != nil {
		return sim.Config{}, err
	}
	prof.Seed += off
	cfg := sim.Config{Workload: prof, MaxInsts: insts}
	return cfg, bench.ApplyPolicy(&cfg, policy, 0)
}

// cellOut is one finished cell.
type cellOut struct {
	insts  uint64
	digest string
	errs   []string // failed invariants
}

func runCell(ctx context.Context, c tablesCell) (cellOut, error) {
	if c.multi != nil {
		cfg, err := c.multi()
		if err != nil {
			return cellOut{}, err
		}
		res, err := sim.RunMulticore(ctx, cfg)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{insts: res.Insts, digest: multicoreDigest(c.label, res), errs: multicoreInvariants(c.label, res, cfg.MaxInsts)}, nil
	}
	cfg, err := c.solo()
	if err != nil {
		return cellOut{}, err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return cellOut{}, err
	}
	return cellOut{insts: res.Insts, digest: resultDigest(c.label, res), errs: soloInvariants(c.label, res, cfg.MaxInsts)}, nil
}

// soloInvariants are the per-run output checks of a solo result.
func soloInvariants(label string, r *sim.Result, budget uint64) []string {
	var errs []string
	if r.Insts < budget {
		errs = append(errs, fmt.Sprintf("%s: %d insts below the budget %d", label, r.Insts, budget))
	}
	if !(r.AvgDuty >= 0 && r.AvgDuty <= 1) {
		errs = append(errs, fmt.Sprintf("%s: duty %g outside [0,1]", label, r.AvgDuty))
	}
	for _, b := range r.Blocks {
		if !finite(b.AvgTemp, b.MaxTemp) {
			errs = append(errs, fmt.Sprintf("%s: block %s temperature not finite", label, b.Name))
		}
	}
	if r.Cycles == 0 || !finite(r.IPC, r.AvgChipPower) {
		errs = append(errs, fmt.Sprintf("%s: degenerate result (cycles %d, ipc %g)", label, r.Cycles, r.IPC))
	}
	return errs
}

func multicoreInvariants(label string, r *sim.MulticoreResult, budget uint64) []string {
	var errs []string
	for i, c := range r.PerCore {
		if c.Insts < budget {
			errs = append(errs, fmt.Sprintf("%s core %d: %d insts below the budget %d", label, i, c.Insts, budget))
		}
		if !(c.AvgDuty >= 0 && c.AvgDuty <= 1) || !(c.AvgFreq >= 0 && c.AvgFreq <= 1) {
			errs = append(errs, fmt.Sprintf("%s core %d: duty %g / freq %g outside [0,1]", label, i, c.AvgDuty, c.AvgFreq))
		}
		for _, b := range c.Blocks {
			if !finite(b.AvgTemp, b.MaxTemp) {
				errs = append(errs, fmt.Sprintf("%s core %d: block %s temperature not finite", label, i, b.Name))
			}
		}
	}
	return errs
}

func resultDigest(label string, r *sim.Result) string {
	return fmt.Sprintf("%s %d %d %d %d %d %x %x", label, r.Cycles, r.Insts, r.EmergencyCycles,
		r.StressCycles, r.Engagements, math.Float64bits(r.AvgChipPower), math.Float64bits(r.AvgDuty))
}

func multicoreDigest(label string, r *sim.MulticoreResult) string {
	return fmt.Sprintf("%s %d %d %d %d %x", label, r.Cycles, r.Insts, r.EmergencyCycles,
		r.StressCycles, math.Float64bits(r.AvgChipPower))
}

func runTables(e *env) error {
	ctx := context.Background()
	// Set-up: build every cell configuration of the first round (policy
	// tuning included) and a short warm-up run per benchmark, setupReps
	// times.
	var reps []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, c := range tablesRound(e.seed, 0) {
			if c.solo != nil {
				if _, err := c.solo(); err != nil {
					return err
				}
			} else if _, err := c.multi(); err != nil {
				return err
			}
		}
		// One short warm-up run per benchmark of the matrix, on the
		// unperturbed profiles: their cost would otherwise follow the
		// seed, and set-up time must compare across seeds.
		for _, b := range tablesBenches {
			cfg, err := soloConfig(b, "PI", 0, 20_000)
			if err != nil {
				return err
			}
			if _, err := sim.RunContext(ctx, cfg); err != nil {
				return err
			}
		}
		reps = append(reps, time.Since(t0))
	}
	setup := e.setupTime(reps, 0)

	var (
		lat          []float64
		rate, opRate []float64 // per round; the figures are medians over rounds
		insts        uint64
		wall, busy   time.Duration
		dg           = newDigest()
	)
	opts := runner.Options{Workers: e.workers}
	debug.FreeOSMemory()
	rss := sampleRSS(os.Getpid())
	for r := 0; wall.Seconds() < e.seconds; r++ {
		cells := tablesRound(e.seed, r)
		jobs := make([]runner.Job[cellOut], len(cells))
		for i, c := range cells {
			c := c
			jobs[i] = func(ctx context.Context) (cellOut, error) { return runCell(ctx, c) }
		}
		t0 := time.Now()
		outs, _ := runner.Run(ctx, opts, jobs)
		d := time.Since(t0)
		wall += d
		var roundInsts uint64
		var roundOps int
		for i, o := range outs {
			failed := o.Err != nil || len(o.Value.errs) > 0
			e.op(failed)
			if o.Err != nil {
				e.check(false, "%s: %v", cells[i].label, o.Err)
				continue
			}
			for _, msg := range o.Value.errs {
				e.check(false, "%s", msg)
			}
			insts += o.Value.insts
			roundInsts += o.Value.insts
			roundOps++
			lat = append(lat, o.Metrics.Wall.Seconds()*1e3)
			busy += o.Metrics.Wall
			if r == 0 {
				dg.add("%s", o.Value.digest)
			}
		}
		// Rounds start, as a fresh tool process does, without the last
		// round's garbage in the resident set: peak_rss_mib is then a
		// round's own peak, not a matter of when the collector ran.
		debug.FreeOSMemory()
		rss.mark()
		rate = append(rate, float64(roundInsts)/d.Seconds()/1e6)
		opRate = append(opRate, float64(roundOps)/d.Seconds())
	}
	peak, err := rss.finish()
	if err != nil {
		return err
	}
	t := tailOf(lat)
	e.note("digest tables_exact round 0 (%d cells): %s", len(tablesRound(e.seed, 0)), dg)
	e.note("round rates (Minst/s): %s", roundRates(rate))
	e.note("cells %d, simulated %d insts in %.2f s; cell latency p50 %.4g ms, tail %s ms",
		len(lat), insts, wall.Seconds(), median(lat), t)
	if e.trace {
		e.set("runner.busy_frac", busy.Seconds()/(wall.Seconds()*float64(e.workers)))
		e.set("runner.job_s_p50", median(lat)/1e3)
		mk := func(pol string) (sim.Config, error) {
			return soloConfig(tablesBenches[0], pol, seedIndex(e.seed, 0), tablesToolInsts)
		}
		if err := e.simLayers(tablesBenches[0], mk, "PI"); err != nil {
			return err
		}
		return e.multicoreLayer(seedIndex(e.seed, 0))
	}
	e.set("setup_s", setup)
	e.set("sim_minst_per_s", median(rate))
	e.set("peak_rss_mib", peak)
	e.set("capacity_ops_per_s", median(opRate))
	return nil
}

// multicoreLayer times sim.Multicore.Step on the face-off cell.
func (e *env) multicoreLayer(off uint64) error {
	cfg, err := bench.NewMulticoreRun("hotneighbor", "PID", multicoreCores, 100_000)
	if err != nil {
		return err
	}
	for i := range cfg.Workloads {
		cfg.Workloads[i].Seed += off
	}
	m, err := sim.NewMulticore(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for !m.Done() {
		m.Step()
	}
	d := time.Since(t0)
	e.set("sim.multicore_ns_per_core_cycle", float64(d)/float64(m.Cycle()*multicoreCores))
	return nil
}
