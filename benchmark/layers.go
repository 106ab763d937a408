package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// The traced driver steps one solo configuration through the modules'
// public functions (workload.Source → pipeline.Core.Step →
// power.Model.BlockPower/ChipPower → thermal.Network.StepWindow →
// dtm.Manager.StepActuation) in the order sim.Sim.Step calls them, and
// times a sample of each call from here. The driver runs slower than an
// untraced sim.Run (trace.overhead_frac), and the layers timed inside it
// carry that slowdown, so the reconciliation is made in the driver's own
// terms: sim.layer_sum_frac is the layer sum over the driver's wall
// ns/cycle, and sim.self_ns_per_cycle is the untraced sim.Run's ns/cycle
// times the share the layers leave over, the cost of what the driver does
// not reproduce (window envelope, emergency/stress accounting, result
// bookkeeping) at sim.Run's speed.

// sampleMask selects the sampled cycles: each fine-grained call is timed
// on one cycle in sixteen, a different cycle per layer, so the clock
// reads never nest and their cost stays a small share of a ~45 ns call.
const sampleMask = 15

// traceReps is how many untraced/traced pairs simLayers alternates.
const traceReps = 3

// timedSource is the timing workload.Source handed to pipeline.New. It
// counts every call and times the calls made while timing is set.
type timedSource struct {
	src    workload.Source
	timing bool

	nextN, wrongN     uint64        // all calls
	nextS, wrongS     uint64        // timed calls
	nextDur, wrongDur time.Duration // time in timed calls
}

func (t *timedSource) Next() isa.MicroOp {
	t.nextN++
	if !t.timing {
		return t.src.Next()
	}
	t0 := time.Now()
	op := t.src.Next()
	t.nextDur += time.Since(t0)
	t.nextS++
	return op
}

func (t *timedSource) PeekPC() uint64 { return t.src.PeekPC() }

func (t *timedSource) WrongPath(pc uint64) isa.MicroOp {
	t.wrongN++
	if !t.timing {
		return t.src.WrongPath(pc)
	}
	t0 := time.Now()
	op := t.src.WrongPath(pc)
	t.wrongDur += time.Since(t0)
	t.wrongS++
	return op
}

// traceStats is one traced-driver run.
type traceStats struct {
	cycles, committed, fetched uint64
	wall                       time.Duration
	src                        *timedSource

	stepDur, bpDur, cpDur, winDur, dtmDur time.Duration
	stepS, bpS, cpS, wins, dtmS           uint64
	winCycles                             uint64
}

// driveTraced runs cfg (solo, default pipeline/power/thermal settings,
// optional Manager) through the traced driver.
func driveTraced(cfg sim.Config) (*traceStats, error) {
	if cfg.Scaling != nil || cfg.Hierarchy != nil || cfg.Leakage != nil || cfg.Tangential {
		return nil, fmt.Errorf("traced driver: configuration outside its scope")
	}
	gen, err := workload.NewGenerator(cfg.Workload)
	if err != nil {
		return nil, err
	}
	src := &timedSource{src: gen}
	pcfg := pipeline.DefaultConfig()
	core, err := pipeline.New(pcfg, src)
	if err != nil {
		return nil, err
	}
	powCfg := power.DefaultConfig()
	powCfg.Pipeline = pcfg
	pm, err := power.New(powCfg)
	if err != nil {
		return nil, err
	}
	tcfg := thermal.DefaultConfig()
	tcfg.SinkTemp = sim.DefaultThresholds().SinkTemp
	net := thermal.New(tcfg)
	nb := net.NumBlocks()
	pv := make([]float64, nb)
	acc := make([]float64, nb)
	avg := make([]float64, nb)
	tss := make([]float64, nb)
	temps := make([]float64, nb)
	net.Temps(temps)

	mgr := cfg.Manager
	var interval uint64
	if mgr != nil {
		mgr.Reset()
		interval = mgr.Interval
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 50 * cfg.MaxInsts
	}
	// Window lengths follow sim's rule: the default stride, clamped to the
	// next DTM sample boundary and to the cycle budget.
	nextWindow := func(c uint64) uint64 {
		w := uint64(sim.DefaultThermalStride)
		if interval != 0 {
			if d := (c/interval+1)*interval - c; d < w {
				w = d
			}
		}
		if maxCycles > c && maxCycles-c < w {
			w = maxCycles - c
		}
		return max(w, 1)
	}

	st := &traceStats{src: src}
	var act pipeline.Activity
	duty := 1.0
	var stallLeft, cycle uint64
	winLen := nextWindow(0)
	winLeft := winLen
	start := time.Now()
	for core.Stats().Committed < cfg.MaxInsts && cycle < maxCycles {
		cycle++
		phase := cycle & sampleMask
		stalled := stallLeft > 0
		switch {
		case stalled:
			stallLeft--
			act.Reset()
		case phase == 0:
			t0 := time.Now()
			core.Step(&act)
			st.stepDur += time.Since(t0)
			st.stepS++
		case phase == 8:
			src.timing = true
			core.Step(&act)
			src.timing = false
		default:
			core.Step(&act)
		}
		if phase == 4 {
			t0 := time.Now()
			pm.BlockPower(&act, pv)
			st.bpDur += time.Since(t0)
			st.bpS++
		} else {
			pm.BlockPower(&act, pv)
		}
		if phase == 12 {
			t0 := time.Now()
			pm.ChipPower(&act, pv)
			st.cpDur += time.Since(t0)
			st.cpS++
		} else {
			pm.ChipPower(&act, pv)
		}
		for i, p := range pv {
			acc[i] += p
		}
		if winLeft--; winLeft == 0 {
			fw := float64(winLen)
			for i := range acc {
				avg[i] = acc[i] / fw
				acc[i] = 0
			}
			t0 := time.Now()
			net.StepWindow(avg, winLen, 1, tss)
			st.winDur += time.Since(t0)
			st.wins++
			st.winCycles += winLen
			net.Temps(temps)
			winLen = nextWindow(cycle)
			winLeft = winLen
		}
		if !stalled && interval != 0 && cycle%interval == 0 {
			t0 := time.Now()
			a, stall := mgr.StepActuation(cycle, temps)
			st.dtmDur += time.Since(t0)
			st.dtmS++
			if a.FetchDuty != duty {
				duty = a.FetchDuty
				core.SetFetchDuty(duty)
			}
			core.SetFetchLimit(a.FetchLimit)
			core.SetMaxUnresolvedBranches(a.MaxUnresolved)
			stallLeft += stall
		}
	}
	st.wall = time.Since(start)
	ps := core.Stats()
	st.cycles, st.committed, st.fetched = cycle, ps.Committed, ps.Fetched
	return st, nil
}

// timerCost is the cost of one empty timed interval, subtracted from every
// sampled call so the clock reads are not booked to the layer.
func timerCost() time.Duration {
	ds := make([]float64, 2001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func perCall(d time.Duration, n uint64, overhead time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return max(float64(d)/float64(n)-float64(overhead), 0)
}

// simLayers measures the sim layers on one solo configuration and records
// them, plus the driver checks: on the unmanaged configuration the driver
// must reproduce sim.Run's cycle and instruction counts exactly. mk must
// return a fresh config on every call (controllers are stateful).
func (e *env) simLayers(label string, mk func(policy string) (sim.Config, error), policy string) error {
	ctx := context.Background()
	// Unmanaged check.
	ucfg, err := mk("none")
	if err != nil {
		return err
	}
	ref, err := sim.RunContext(ctx, ucfg)
	if err != nil {
		return err
	}
	ucfg, _ = mk("none")
	ust, err := driveTraced(ucfg)
	if err != nil {
		return err
	}
	e.check(ust.cycles == ref.Cycles && ust.committed == ref.Insts,
		"traced driver on %s/none: %d cycles %d insts, sim.Run %d cycles %d insts",
		label, ust.cycles, ust.committed, ref.Cycles, ref.Insts)

	// Traced configuration: untraced and traced runs alternate traceReps
	// times; the fastest of each kind is kept, the least disturbed by the
	// host, so the reconciliation compares like with like.
	var best *traceStats
	var e2e, traced float64
	var refRes *sim.Result
	for i := 0; i < traceReps; i++ {
		cfg, err := mk(policy)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return err
		}
		ns := float64(time.Since(t0)) / float64(res.Cycles)
		if i == 0 || ns < e2e {
			e2e = ns
		}
		refRes = res
		cfg, _ = mk(policy)
		st, err := driveTraced(cfg)
		if err != nil {
			return err
		}
		if tns := float64(st.wall) / float64(st.cycles); i == 0 || tns < traced {
			traced, best = tns, st
		}
	}
	st := best
	oh := timerCost()
	cyc := float64(st.cycles)
	src := st.src
	nextNs := perCall(src.nextDur, src.nextS, oh)
	wrongNs := perCall(src.wrongDur, src.wrongS, oh)
	workloadPerCycle := (nextNs*float64(src.nextN) + wrongNs*float64(src.wrongN)) / cyc
	stepSelf := max(perCall(st.stepDur, st.stepS, oh)-workloadPerCycle, 0)
	bp := perCall(st.bpDur, st.bpS, oh)
	cp := perCall(st.cpDur, st.cpS, oh)
	winNs := perCall(st.winDur, st.wins, oh)
	thermalPerCycle := winNs * float64(st.wins) / cyc
	dtmNs := perCall(st.dtmDur, st.dtmS, oh)
	dtmPerCycle := dtmNs * float64(st.dtmS) / cyc
	layerSum := workloadPerCycle + stepSelf + bp + cp + thermalPerCycle + dtmPerCycle

	e.set("workload.next_ns", nextNs)
	e.set("workload.wrongpath_ns", wrongNs)
	e.set("workload.ops_per_commit", float64(src.nextN+src.wrongN)/float64(st.committed))
	e.set("pipeline.step_self_ns", stepSelf)
	e.set("pipeline.commit_per_fetch", float64(st.committed)/float64(st.fetched))
	e.set("pipeline.ipc", float64(st.committed)/cyc)
	e.set("power.block_power_ns", bp)
	e.set("power.chip_power_ns", cp)
	e.set("thermal.step_window_ns", winNs)
	if st.wins > 0 {
		e.set("thermal.window_cycles", float64(st.winCycles)/float64(st.wins))
	}
	e.set("thermal.ns_per_cycle", thermalPerCycle)
	e.set("dtm.step_ns", dtmNs)
	e.set("dtm.samples_per_mcycle", float64(st.dtmS)/cyc*1e6)
	frac := layerSum / traced
	e.set("sim.self_ns_per_cycle", e2e*(1-frac))
	e.set("sim.layer_sum_frac", frac)
	e.set("trace.overhead_frac", traced/e2e-1)

	e.note("traced config %s/%s: %d cycles; sim.Run %.1f ns/cycle, traced driver %.1f ns/cycle, timer cost %v subtracted per sample",
		label, policy, st.cycles, e2e, traced, oh)
	e.note("reconciliation (ROADMAP 1a): layer sum %.1f ns/cycle = %.1f%% of the traced driver's ns/cycle; within ±10%%: %v; layer shares: workload %.2f%%, pipeline %.2f%%, power %.2f%%, thermal %.2f%%, dtm %.2f%%",
		layerSum, 100*frac, frac >= 0.9 && frac <= 1.1, 100*workloadPerCycle/traced, 100*stepSelf/traced,
		100*(bp+cp)/traced, 100*thermalPerCycle/traced, 100*dtmPerCycle/traced)
	e.note("traced driver on %s/%s matches sim.Run cycles/insts: %v (checked on the unmanaged config: %v)",
		label, policy, st.cycles == refRes.Cycles && st.committed == refRes.Insts,
		ust.cycles == ref.Cycles && ust.committed == ref.Insts)
	return nil
}
