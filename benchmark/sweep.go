package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/dtm"
	"repro/internal/runner"
	"repro/internal/sim"
)

// sweep_gang: the cells cmd/sweep builds for its setpoint, interval and
// trigger parameters (PI for the first two, toggle1 for trigger, the
// uncontrolled baseline riding along as in the tool), each parameter's
// points run as one exact sim.NewGang with default GangOptions. gap is
// cool: its gang stays in few classes, so per-member power scaling,
// thermal windows and DTM dominate. gcc is extreme: its gang forks and
// falls back to pipeline cost.
//
// The gang lengths are cut from cmd/sweep's 1M-instruction default so a
// round of six gangs fits a few seconds; the traced run uses the default.
var sweepBenches = []struct {
	name  string
	insts uint64
}{{"gap", 100_000}, {"gcc", 500_000}}

const sweepToolInsts = 1_000_000 // cmd/sweep -insts default

var sweepParams = []string{"setpoint", "interval", "trigger"}

// sweepConfigs mirrors cmd/sweep's point lists for one parameter.
func sweepConfigs(benchName, param string, off, insts uint64) ([]sim.Config, error) {
	prof, err := bench.ByName(benchName)
	if err != nil {
		return nil, err
	}
	prof.Seed += off
	var points []func(*sim.Config) error
	switch param {
	case "setpoint":
		for _, sp := range []float64{110.3, 110.6, 110.9, 111.0, 111.1, 111.2} {
			sp := sp
			points = append(points, func(c *sim.Config) error { return bench.ApplyPolicy(c, "PI", sp) })
		}
	case "interval":
		for _, iv := range []uint64{250, 500, 1000, 2000, 4000, 8000, 16000} {
			iv := iv
			points = append(points, func(c *sim.Config) error {
				if err := bench.ApplyPolicy(c, "PI", 0); err != nil {
					return err
				}
				c.Manager.Interval = iv
				return nil
			})
		}
	case "trigger":
		for _, tr := range []float64{109.3, 109.8, 110.3, 110.8, 111.0, 111.2} {
			tr := tr
			points = append(points, func(c *sim.Config) error {
				c.Manager = dtm.NewManager(dtm.NewToggle1(tr, bench.PolicyDelaySamples))
				return nil
			})
		}
	default:
		return nil, fmt.Errorf("unknown sweep parameter %q", param)
	}
	cfgs := []sim.Config{{Workload: prof, MaxInsts: insts}} // the baseline rides along
	for _, point := range points {
		cfg := sim.Config{Workload: prof, MaxInsts: insts}
		if err := point(&cfg); err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// gangJob identifies one gang of a round.
type gangJob struct {
	bench string
	param string
	off   uint64
	insts uint64
}

type gangOut struct {
	results []*sim.Result
	stats   sim.GangStats
	stepDur time.Duration
}

func runGang(ctx context.Context, j gangJob, traced bool) (gangOut, error) {
	cfgs, err := sweepConfigs(j.bench, j.param, j.off, j.insts)
	if err != nil {
		return gangOut{}, err
	}
	g, err := sim.NewGang(cfgs, sim.GangOptions{})
	if err != nil {
		return gangOut{}, err
	}
	var out gangOut
	if traced {
		t0 := time.Now()
		for g.Step() {
		}
		out.stepDur = time.Since(t0)
	}
	if out.results, err = g.Run(ctx); err != nil {
		return gangOut{}, err
	}
	out.stats = g.Stats()
	return out, nil
}

func sweepRound(seed uint64, r int) []gangJob {
	var jobs []gangJob
	for _, b := range sweepBenches {
		for _, p := range sweepParams {
			jobs = append(jobs, gangJob{bench: b.name, param: p, off: seedIndex(seed, r), insts: b.insts})
		}
	}
	return jobs
}

// soloCheck is one gang member to re-run solo and compare byte for byte.
type soloCheck struct {
	job    gangJob
	member int
	want   []byte
}

func runSweep(e *env) error {
	ctx := context.Background()
	var reps []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, j := range sweepRound(e.seed, 0) {
			cfgs, err := sweepConfigs(j.bench, j.param, j.off, 20_000)
			if err != nil {
				return err
			}
			if _, err := sim.NewGang(cfgs, sim.GangOptions{}); err != nil {
				return err
			}
		}
		// The warm-up gang runs the unperturbed profile: its cost would
		// otherwise follow the seed, and set-up time must compare across
		// seeds.
		cfgs, err := sweepConfigs(sweepBenches[0].name, "setpoint", 0, 20_000)
		if err != nil {
			return err
		}
		g, err := sim.NewGang(cfgs, sim.GangOptions{})
		if err != nil {
			return err
		}
		if _, err := g.Run(ctx); err != nil {
			return err
		}
		reps = append(reps, time.Since(t0))
	}
	setup := e.setupTime(reps, 0)

	rng := rand.New(rand.NewSource(int64(e.seed)))
	var (
		lat                   []float64
		rate, opRate          []float64 // per round; the figures are medians over rounds
		insts                 uint64
		members               int
		wall, busy, stepDur   time.Duration
		memberCyc, classCyc   uint64
		forks, merges, gangsN int
		checks                []soloCheck
		dg                    = newDigest()
	)
	opts := runner.Options{Workers: e.workers}
	debug.FreeOSMemory()
	rss := sampleRSS(os.Getpid())
	for r := 0; wall.Seconds() < e.seconds; r++ {
		jobs := sweepRound(e.seed, r)
		rjobs := make([]runner.Job[gangOut], len(jobs))
		for i, j := range jobs {
			j := j
			rjobs[i] = func(ctx context.Context) (gangOut, error) { return runGang(ctx, j, e.trace) }
		}
		t0 := time.Now()
		outs, _ := runner.Run(ctx, opts, rjobs)
		d := time.Since(t0)
		wall += d
		var roundInsts uint64
		var roundMembers int
		for i, o := range outs {
			j := jobs[i]
			label := fmt.Sprintf("%s/%s round %d", j.bench, j.param, r)
			if o.Err != nil {
				e.op(true)
				e.check(false, "%s: %v", label, o.Err)
				continue
			}
			var errs []string
			for k, res := range o.Value.results {
				errs = append(errs, soloInvariants(fmt.Sprintf("%s member %d", label, k), res, j.insts)...)
				insts += res.Insts
				roundInsts += res.Insts
				if r == 0 {
					dg.add("%s", resultDigest(fmt.Sprintf("%s/%d", label, k), res))
				}
			}
			for _, msg := range errs {
				e.check(false, "%s", msg)
			}
			e.op(len(errs) > 0)
			member := rng.Intn(len(o.Value.results))
			want, err := json.Marshal(o.Value.results[member])
			if err != nil {
				return err
			}
			checks = append(checks, soloCheck{job: j, member: member, want: want})
			members += len(o.Value.results)
			roundMembers += len(o.Value.results)
			lat = append(lat, o.Metrics.Wall.Seconds()*1e3)
			busy += o.Metrics.Wall
			st := o.Value.stats
			memberCyc += st.MemberCycles
			classCyc += st.ClassCycles
			forks += st.Forks
			merges += st.Merges
			stepDur += o.Value.stepDur
			gangsN++
		}
		// Rounds start, as a fresh tool process does, without the last
		// round's garbage in the resident set: peak_rss_mib is then a
		// round's own peak, not a matter of when the collector ran.
		debug.FreeOSMemory()
		rss.mark()
		rate = append(rate, float64(roundInsts)/d.Seconds()/1e6)
		opRate = append(opRate, float64(roundMembers)/d.Seconds())
	}

	peak, err := rss.finish()
	if err != nil {
		return err
	}

	// Output check, outside the timed region: one sampled member per gang
	// re-run solo must match its gang result byte for byte.
	mismatches, err := runner.Map(ctx, opts, checks, func(ctx context.Context, c soloCheck) (string, error) {
		cfgs, err := sweepConfigs(c.job.bench, c.job.param, c.job.off, c.job.insts)
		if err != nil {
			return "", err
		}
		res, err := sim.RunContext(ctx, cfgs[c.member])
		if err != nil {
			return "", err
		}
		got, err := json.Marshal(res)
		if err != nil || bytes.Equal(got, c.want) {
			return "", err
		}
		return fmt.Sprintf("%s/%s member %d: solo run differs from its gang result", c.job.bench, c.job.param, c.member), nil
	})
	if err != nil {
		return err
	}
	for _, m := range mismatches {
		e.check(m == "", "%s", m)
	}

	t := tailOf(lat)
	e.note("digest sweep_gang round 0 (%d gangs): %s", len(sweepParams)*len(sweepBenches), dg)
	e.note("round rates (Minst/s): %s", roundRates(rate))
	e.note("gangs %d (%d members), simulated %d insts in %.2f s; gang latency p50 %.4g ms, tail %s ms; %d sampled gang members re-run solo",
		gangsN, members, insts, wall.Seconds(), median(lat), t, len(checks))
	if e.trace {
		e.set("runner.busy_frac", busy.Seconds()/(wall.Seconds()*float64(e.workers)))
		e.set("runner.job_s_p50", median(lat)/1e3)
		e.set("sim.gang_occupancy", float64(memberCyc)/float64(classCyc))
		e.set("sim.gang_forks", float64(forks)/float64(gangsN))
		e.set("sim.gang_merges", float64(merges)/float64(gangsN))
		e.set("sim.gang_ns_per_member_cycle", float64(stepDur)/float64(memberCyc))
		cool := sweepBenches[0]
		mk := func(pol string) (sim.Config, error) {
			return soloConfig(cool.name, pol, seedIndex(e.seed, 0), sweepToolInsts)
		}
		return e.simLayers(cool.name, mk, "PI")
	}
	e.set("setup_s", setup)
	e.set("sim_minst_per_s", median(rate))
	e.set("peak_rss_mib", peak)
	e.set("capacity_ops_per_s", median(opRate))
	return nil
}
