package sim_test

// Development aid: snapshots exact Result and MulticoreResult values for a
// matrix of configurations so that semantics-preserving hot-path rewrites
// can be verified bit-for-bit. Take a snapshot of the code before the
// rewrite with GOLDEN_OUT=/tmp/golden.json, then compare the rewrite
// against it with GOLDEN_IN=/tmp/golden.json on the same host. Snapshots
// are not committed: on amd64 math.Exp takes an FMA path only on CPUs
// that have FMA, so bit-exact values can differ between machines.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/workload"
)

func fpProfile() workload.Profile {
	return workload.Profile{
		Name: "fpmix",
		Seed: 1234,
		Phases: []workload.Phase{
			{
				Insts:            200_000,
				Mix:              workload.Mix{IntALU: 20, FPALU: 25, FPMult: 10, FPDiv: 1, Load: 24, Store: 8, Branch: 8, Call: 2},
				DepMean:          6,
				LoopIters:        40,
				BodySize:         48,
				NumLoops:         12,
				BranchRandomFrac: 0.15,
				BranchBias:       0.45,
				WorkingSet:       2 << 20,
				StreamFrac:       0.4,
			},
			{
				Insts:            150_000,
				Mix:              workload.Mix{IntALU: 40, IntMult: 4, IntDiv: 1, Load: 20, Store: 12, Branch: 18, Call: 3},
				DepMean:          3,
				LoopIters:        25,
				BodySize:         32,
				NumLoops:         30,
				BranchRandomFrac: 0.3,
				BranchBias:       0.5,
				WorkingSet:       512 << 10,
				StreamFrac:       0.2,
			},
		},
	}
}

func goldenMatrix() map[string]sim.Config {
	const n = 300_000
	mkInterrupt := func() *dtm.Manager {
		m := dtm.NewManager(dtm.NewToggle1(110.3, 5))
		m.Mechanism = dtm.Interrupt
		return m
	}
	return map[string]sim.Config{
		"hot/none":      {Workload: sim.HotProfile(), MaxInsts: n},
		"hot/pi":        {Workload: sim.HotProfile(), MaxInsts: n, Manager: sim.NewPIManager(111.1)},
		"hot/toggle1":   {Workload: sim.HotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewToggle1(110.3, 5))},
		"hot/manual":    {Workload: sim.HotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewManual(110.3, 111.3))},
		"hot/throttle":  {Workload: sim.HotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewThrottle(110.3, 1, 5))},
		"hot/specctl":   {Workload: sim.HotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewSpecControl(110.3, 1, 5))},
		"hot/interrupt": {Workload: sim.HotProfile(), MaxInsts: n, Manager: mkInterrupt()},
		"hot/leak":      {Workload: sim.HotProfile(), MaxInsts: n, Leakage: power.DefaultLeakage()},
		"hot/fscale":    {Workload: sim.HotProfile(), MaxInsts: n, Scaling: dtm.NewFreqScaling(110.3, 0.5, 5)},
		"hot/hier": {Workload: sim.HotProfile(), MaxInsts: n,
			Hierarchy: dtm.NewHierarchy(&dtm.Toggle{Trigger: 110.3, EngagedDuty: 0.97, PolicyDelay: 5},
				dtm.NewVoltageScaling(111.2, 0.5, 10), 111.2)},
		"hot/tang":    {Workload: sim.HotProfile(), MaxInsts: n, Tangential: true},
		"hot/proxies": {Workload: sim.HotProfile(), MaxInsts: n, ProxyWindows: []int{10_000, 100_000}},
		"hot/sensor": {Workload: sim.HotProfile(), MaxInsts: n, Manager: sim.NewPIManager(111.1),
			Sensor: sensor.Sensor{Offset: -0.4, Quantum: 0.25}},
		"hot/monitored": {Workload: sim.HotProfile(), MaxInsts: n, Manager: sim.NewPIManager(111.1),
			MonitoredBlocks: []floorplan.BlockID{floorplan.IntExec, floorplan.BPred}},
		"hot/sink":   {Workload: sim.HotProfile(), MaxInsts: n, CoupleChipSink: true},
		"hot/trace":  {Workload: sim.HotProfile(), MaxInsts: n, TraceStride: 1000},
		"cold/none":  {Workload: sim.ColdProfile(), MaxInsts: n},
		"cold/pi":    {Workload: sim.ColdProfile(), MaxInsts: n, Manager: sim.NewPIManager(111.1)},
		"fp/none":    {Workload: fpProfile(), MaxInsts: n},
		"fp/pi":      {Workload: fpProfile(), MaxInsts: n, Manager: sim.NewPIManager(111.1)},
		"fp/toggle2": {Workload: fpProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewToggle2(110.3, 5))},
		"fp/leak":    {Workload: fpProfile(), MaxInsts: n, Leakage: power.DefaultLeakage()},
	}
}

// goldenMulticore lists the multicore cells: two core-interaction
// scenarios at 1, 2 and 4 cores under every multicore policy family, on
// both thermal paths. Every die starts above both thresholds so the
// per-core and the chip-wide emergency/stress unions move.
func goldenMulticore() map[string]func() (sim.MulticoreConfig, error) {
	const n = 100_000 // per core
	cells := map[string]func() (sim.MulticoreConfig, error){}
	for _, scenario := range []string{"hotneighbor", "staggered"} {
		for _, cores := range []int{1, 2, 4} {
			for _, policy := range bench.MulticorePolicies() {
				for _, stride := range []uint64{1, 0} {
					scenario, cores, policy, stride := scenario, cores, policy, stride
					name := fmt.Sprintf("mc/%s/%d/%s/stride%d", scenario, cores, policy, stride)
					cells[name] = func() (sim.MulticoreConfig, error) {
						cfg, err := bench.NewMulticoreRun(scenario, policy, cores, n)
						if err != nil {
							return cfg, err
						}
						cfg.ThermalStride = stride
						cfg.InitTemps = make([]float64, cores*int(floorplan.NumBlocks))
						for i := range cfg.InitTemps {
							cfg.InitTemps[i] = 112.0
						}
						return cfg, nil
					}
				}
			}
		}
	}
	return cells
}

type goldenEntry struct {
	Result          *sim.Result          `json:",omitempty"`
	Trace           []float64            `json:",omitempty"` // flattened TempTrace Ys when present
	MulticoreResult *sim.MulticoreResult `json:",omitempty"`
}

func TestGoldenSnapshot(t *testing.T) {
	out := os.Getenv("GOLDEN_OUT")
	in := os.Getenv("GOLDEN_IN")
	if out == "" && in == "" {
		t.Skip("set GOLDEN_OUT or GOLDEN_IN")
	}
	got := map[string]goldenEntry{}
	for name, cfg := range goldenMatrix() {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := goldenEntry{Result: res}
		if res.TempTrace != nil {
			e.Trace = res.TempTrace.Ys
		}
		got[name] = e
	}
	for name, build := range goldenMulticore() {
		cfg, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.RunMulticore(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = goldenEntry{MulticoreResult: res}
	}
	if out != "" {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), out)
	}
	if in != "" {
		buf, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]json.RawMessage
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			gotBuf, err := json.Marshal(got[name])
			if err != nil {
				t.Fatal(err)
			}
			var wantBuf bytes.Buffer
			if err := json.Compact(&wantBuf, want[name]); err != nil {
				t.Errorf("%s: not in golden snapshot %s", name, in)
				continue
			}
			if !bytes.Equal(gotBuf, wantBuf.Bytes()) {
				t.Errorf("%s: diverges from golden snapshot %s\n got: %s\nwant: %s", name, in, gotBuf, wantBuf.Bytes())
			}
		}
		if len(want) != len(got) {
			t.Errorf("golden snapshot %s has %d entries, the matrix %d", in, len(want), len(got))
		}
	}
}
