package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// TestEngineEnergyBalance checks the first law on the thermal engine: over
// a run, the heat stored in the blocks, Σ Cᵢ·ΔTᵢ, equals the energy the
// blocks dissipated, Σ Pᵢ·Δt, minus the heat that flowed through each
// block's normal resistance to the sink, Σ (Δt/Rᵢ)·Σₖ (Tᵢ(k) − Tsink).
// The engine's per-block temperature sums supply the sink term on both
// the Euler and the window path. Lateral flows only move heat between
// blocks, so they cancel only if every tangential edge is symmetric —
// on Tile(n) that includes the cross-core seam edges.
func TestEngineEnergyBalance(t *testing.T) {
	const cycles = 40_000
	nets := []struct {
		name string
		cfg  thermal.Config
	}{
		{"default", thermal.DefaultConfig()},
		{"tile2", thermal.TileConfig(2)},
		{"tile4", thermal.TileConfig(4)},
	}
	for _, nc := range nets {
		for _, stride := range []uint64{1, DefaultThermalStride} {
			t.Run(fmt.Sprintf("%s/stride%d", nc.name, stride), func(t *testing.T) {
				net := thermal.New(nc.cfg)
				n := net.NumBlocks()
				rng := rand.New(rand.NewSource(int64(n) + int64(stride)))
				// Start off equilibrium, some blocks below the sink and
				// some well above it, so every flow is live.
				t0 := make([]float64, n)
				for i := range t0 {
					t0[i] = 95 + 20*rng.Float64()
					net.SetTemp(i, t0[i])
				}
				e := newThermalEngine(net, DefaultThresholds(), int(floorplan.NumBlocks), stride)
				if e.fast {
					e.openWindow(windowLen(0, cutWindow(e.stride, 0, 1000), cycles))
				}
				dt := nc.cfg.CycleTime
				power := make([]float64, n)
				var dissipated float64
				for c := uint64(1); c <= cycles; c++ {
					for i := range power {
						power[i] = net.Block(i).PeakPower * rng.Float64()
						dissipated += power[i] * dt
					}
					if !e.fast {
						net.Step(power)
						e.settle()
					} else if e.accumulate(power) {
						e.flush(e.winLen, 1, nil)
						e.openWindow(windowLen(c, cutWindow(e.stride, c, 1000), cycles))
					}
				}
				e.finish(1, nil)

				var stored, toSink float64
				for i := 0; i < n; i++ {
					b := net.Block(i)
					tN := e.temps[i]
					stored += b.C * (tN - t0[i])
					// Σ_{k=0}^{N-1} T(k) from the engine's Σ_{k=1}^{N} T(k).
					sum := e.blockTemp[i].Sum() + t0[i] - tN
					toSink += dt / b.R * (sum - cycles*net.SinkTemp())
				}
				resid := stored - (dissipated - toSink)
				scale := math.Abs(stored) + math.Abs(dissipated) + math.Abs(toSink)
				t.Logf("stored=%.6e J dissipated=%.6e J to sink=%.6e J residual=%.2e (rel %.1e)",
					stored, dissipated, toSink, resid, resid/scale)
				if e.blockTemp[0].N() != cycles {
					t.Fatalf("engine recorded %d cycles, want %d", e.blockTemp[0].N(), cycles)
				}
				if math.Abs(resid) > 1e-9*scale {
					t.Errorf("energy not conserved: residual %.3e J (%.1e of the flows)", resid, resid/scale)
				}
			})
		}
	}
}
