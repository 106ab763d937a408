package sim

import (
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/thermal"
)

// thermalEngine advances one die's lumped RC network and keeps its thermal
// bookkeeping; Sim and Multicore are drivers over it. It has two paths:
//
//   - Euler: the driver steps the network once per cycle (Equation 5) and
//     calls settle, which records the new temperatures exactly.
//   - Window (stride > 1): the driver feeds each cycle's block power to
//     accumulate; when a window closes it calls flush, which advances the
//     network across the window with the closed-form exponential and
//     reconstructs the per-cycle bookkeeping analytically.
//
// Blocks form contiguous groups of groupSize (a core's blocks on a tiled
// die); the engine counts, per group and chip-wide, the cycles in which any
// block was above the emergency and stress levels. A solo run is one group
// whose union is the chip union.
type thermalEngine struct {
	net *thermal.Network
	// temps holds the current block temperatures; while a window is open
	// they are the window-start values (frozen for leakage and sensors).
	temps []float64

	// Per-block accumulators. AvgTemp and MaxTemp are filled from
	// blockTemp by finish.
	blocks    []BlockResult
	blockTemp []stats.Running

	emTh, stTh    float64
	groupSize     int
	groupEmerg    []uint64
	groupStress   []uint64
	emerg, stress uint64 // chip-wide unions

	// Window state: powerAcc sums the open window's per-cycle power,
	// winLen/winLeft track its length and remaining cycles, and winTss
	// receives each block's steady-state target at flush.
	fast     bool
	stride   uint64
	winLen   uint64
	winLeft  uint64
	powerAcc []float64
	winTss   []float64
}

// newThermalEngine builds the engine over net, whose current temperatures
// are the run's initial ones. A stride above one selects the window path.
func newThermalEngine(net *thermal.Network, th Thresholds, groupSize int, stride uint64) thermalEngine {
	n := net.NumBlocks()
	e := thermalEngine{
		net:         net,
		temps:       net.Temps(nil),
		blocks:      make([]BlockResult, n),
		blockTemp:   make([]stats.Running, n),
		emTh:        th.Emergency,
		stTh:        th.Stress,
		groupSize:   groupSize,
		groupEmerg:  make([]uint64, n/groupSize),
		groupStress: make([]uint64, n/groupSize),
	}
	if stride > 1 {
		e.fast = true
		e.stride = stride
		e.powerAcc = make([]float64, n)
		e.winTss = make([]float64, n)
	}
	return e
}

// settle records the network's temperatures after a per-cycle Euler step
// and reports whether any block is above the emergency level.
func (e *thermalEngine) settle() (anyEmerg bool) {
	e.net.Temps(e.temps)
	anyStress := false
	for g := range e.groupEmerg {
		em, st := false, false
		for i := g * e.groupSize; i < (g+1)*e.groupSize; i++ {
			t := e.temps[i]
			e.blockTemp[i].Add(t)
			br := &e.blocks[i]
			if t > e.emTh {
				br.EmergencyCycles++
				em = true
			}
			if t > e.stTh {
				br.StressCycles++
				st = true
			}
		}
		if em {
			e.groupEmerg[g]++
			anyEmerg = true
		}
		if st {
			e.groupStress[g]++
			anyStress = true
		}
	}
	if anyEmerg {
		e.emerg++
	}
	if anyStress {
		e.stress++
	}
	return anyEmerg
}

// cutWindow shortens w so a window opening after cycle c ends no later
// than the next multiple of interval (0: no such boundary). The boundary
// lies strictly ahead of c, so the result is at least one cycle.
func cutWindow(w, c, interval uint64) uint64 {
	if interval != 0 {
		if d := (c/interval+1)*interval - c; d < w {
			w = d
		}
	}
	return w
}

// windowLen ends a window opening after cycle c, already cut to the
// driver's boundaries at w cycles, at the cycle budget too; it is never
// shorter than one cycle.
func windowLen(c, w, maxCycles uint64) uint64 {
	if maxCycles > c {
		if d := maxCycles - c; d < w {
			w = d
		}
	}
	return max(w, 1)
}

// openWindow starts a w-cycle accumulation window.
func (e *thermalEngine) openWindow(w uint64) {
	e.winLen = w
	e.winLeft = w
}

// accumulate adds one cycle's block power to the open window and reports
// whether that cycle closes it.
func (e *thermalEngine) accumulate(power []float64) bool {
	acc := e.powerAcc
	for i, p := range power {
		acc[i] += p
	}
	e.winLeft--
	return e.winLeft == 0
}

// flush advances the network across a w-cycle window at invF unit thermal
// steps per cycle and reconstructs the per-cycle bookkeeping analytically.
// Within a constant-power window each block's trajectory
// T(k) = tss + (T0−tss)·q^k (k = 1..w) is monotone toward its steady
// state, so the temperature sum, extrema and above-threshold cycle counts
// follow from the endpoints and one logarithm. Each block's above-set is a
// prefix (cooling) or a suffix (heating) of the window, so a union over
// blocks is the longest prefix plus the longest suffix, capped at w — per
// group and again over the chip. timer, when non-nil, receives the wall
// time of the network solve.
func (e *thermalEngine) flush(w uint64, invF float64, timer *telemetry.Histogram) {
	acc := e.powerAcc
	fw := float64(w)
	for i := range acc {
		acc[i] /= fw // accumulated energy -> mean window power
	}
	var t0 time.Time
	if timer != nil {
		t0 = time.Now()
	}
	q1, qn, qsum := e.net.WindowCoef(w, invF)
	e.net.StepWindow(acc, w, invF, e.winTss)
	if timer != nil {
		timer.Observe(time.Since(t0).Seconds())
	}

	var chipEm, chipSt aboveUnion
	for g := range e.groupEmerg {
		var em, st aboveUnion
		for i := g * e.groupSize; i < (g+1)*e.groupSize; i++ {
			tss := e.winTss[i]
			d0 := e.temps[i] - tss
			t1 := tss + d0*q1[i]
			tw := tss + d0*qn[i]
			lo, hi := t1, tw
			if lo > hi {
				lo, hi = hi, lo
			}
			e.blockTemp[i].AddSpan(w, tss*fw+d0*qsum[i], lo, hi)
			br := &e.blocks[i]
			lnq := invF * e.net.LogDecay(i)
			n, prefix := windowAbove(tss, d0, lnq, w, e.emTh, t1, tw)
			br.EmergencyCycles += n
			em.add(n, prefix)
			n, prefix = windowAbove(tss, d0, lnq, w, e.stTh, t1, tw)
			br.StressCycles += n
			st.add(n, prefix)
			acc[i] = 0
		}
		e.groupEmerg[g] += em.cycles(w)
		e.groupStress[g] += st.cycles(w)
		chipEm.merge(em)
		chipSt.merge(st)
	}
	e.emerg += chipEm.cycles(w)
	e.stress += chipSt.cycles(w)
	e.net.Temps(e.temps)
}

// finish flushes a partially filled window, so every simulated cycle is
// accounted for, and seals the per-block averages and maxima. It returns
// the length of the flushed partial window (0 if none was open).
func (e *thermalEngine) finish(invF float64, timer *telemetry.Histogram) uint64 {
	partial := e.winLen - e.winLeft
	if partial > 0 {
		e.flush(partial, invF, timer)
	}
	for i := range e.blocks {
		e.blocks[i].AvgTemp = e.blockTemp[i].Mean()
		e.blocks[i].MaxTemp = e.blockTemp[i].Max()
	}
	return partial
}

// aboveUnion is the union, over a set of blocks, of their above-threshold
// cycles within one window: the longest prefix and the longest suffix.
type aboveUnion struct{ pre, suf uint64 }

// add folds in one block's above-set of n cycles.
func (u *aboveUnion) add(n uint64, prefix bool) {
	if prefix {
		u.pre = max(u.pre, n)
	} else {
		u.suf = max(u.suf, n)
	}
}

// merge folds in another union.
func (u *aboveUnion) merge(v aboveUnion) {
	u.pre = max(u.pre, v.pre)
	u.suf = max(u.suf, v.suf)
}

// cycles is the union's length in a w-cycle window: a prefix [1..p] and a
// suffix of length q cover min(p+q, w) cycles — disjoint when p+q <= w,
// the whole window otherwise.
func (u aboveUnion) cycles(w uint64) uint64 { return min(u.pre+u.suf, w) }

// windowAbove counts the cycles k in [1..w] whose closed-form temperature
// tss + d0·exp(k·lnq) exceeds thr, and reports whether the above-set is a
// prefix (true: cooling, or the whole window) or a suffix (false:
// heating) of the window. t1 and tw are the precomputed endpoint
// temperatures; monotonicity makes the endpoint checks decisive, and the
// logarithmic crossing estimate is corrected with exact comparisons so
// float error in the solve cannot shift the count.
func windowAbove(tss, d0, lnq float64, w uint64, thr, t1, tw float64) (uint64, bool) {
	if t1 <= thr && tw <= thr {
		return 0, true
	}
	if t1 > thr && tw > thr {
		return w, true
	}
	above := func(k uint64) bool {
		return d0*math.Exp(float64(k)*lnq) > thr-tss
	}
	kf := math.Log((thr-tss)/d0) / lnq
	var c uint64
	switch {
	case !(kf > 1):
		c = 1
	case kf >= float64(w):
		c = w
	default:
		c = uint64(kf)
	}
	if d0 > 0 {
		// Cooling: the above-set is the prefix [1..c].
		for c > 0 && !above(c) {
			c--
		}
		for c < w && above(c+1) {
			c++
		}
		return c, true
	}
	// Heating: the above-set is the suffix [c..w].
	for c > 1 && above(c-1) {
		c--
	}
	for c <= w && !above(c) {
		c++
	}
	return w - c + 1, false
}
