package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
)

// quantile returns the q-quantile of sorted (linear interpolation between
// order statistics, as statistics.quantiles' "inclusive" method).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	f := pos - float64(lo)
	return sorted[lo] + f*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending without modifying v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tail is a latency tail: the highest percentile on tailLadder that has at
// least minBeyond samples above it.
type tail struct {
	value  float64
	pct    float64 // percentile, e.g. 99
	beyond int     // samples above it
	n      int
}

// tailLadder is fixed so a run's percentile moves only when its sample
// count crosses a rung, not with every extra sample.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

const minBeyond = 10

func tailOf(v []float64) tail {
	s := sortedCopy(v)
	n := len(s)
	for _, p := range tailLadder {
		if beyond := int(float64(n) * (1 - p/100)); beyond >= minBeyond {
			return tail{value: quantile(s, p/100), pct: p, beyond: beyond, n: n}
		}
	}
	if n == 0 {
		return tail{}
	}
	return tail{value: s[n-1], pct: 100, n: n}
}

func (t tail) String() string {
	return fmt.Sprintf("%.4g (p%g, %d of %d samples beyond)", t.value, t.pct, t.beyond, t.n)
}

// digest accumulates simulated statistics into a short stable hash, so a
// speed-only change can show that every simulated number is unchanged.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// finite reports whether every value is a finite float.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// roundRates lists per-round (or per-slice) rates, for reading a run's
// spread.
func roundRates(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
