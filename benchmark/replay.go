package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Per-layer numbers for serve_mixed: deltas of the processes' own
// /metrics, and replays of the base phase's cache keys, queries and
// records through runner.Cache and runindex.Catalog on a copy of worker
// 0's cache directory, timed from here.

// promSample is one scrape: series ("name{labels}") -> value.
type promSample map[string]float64

func scrape(base string) (promSample, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeFleet scrapes the workers, then the coordinator (last).
func scrapeFleet(f *fleet) ([]promSample, error) {
	var out []promSample
	for _, u := range append(append([]string(nil), f.workers...), f.coord) {
		s, err := scrape(u)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// delta sums a series' change over the given processes.
func delta(before, after []promSample, procs []int, series string) float64 {
	var d float64
	for _, i := range procs {
		d += after[i][series] - before[i][series]
	}
	return d
}

// histQuantile estimates a quantile of a histogram's change over the given
// processes, interpolating linearly inside the bucket that holds it.
func histQuantile(before, after []promSample, procs []int, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series := range after[procs[0]] {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`), 64)
		if err != nil {
			continue // the +Inf bucket parses as +Inf; anything else is skipped
		}
		bs = append(bs, bucket{le, delta(before, after, procs, series)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if b.le > 1e300 { // +Inf: report the last finite bound
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addDelta adds each process's /metrics change from b0 to b1 to acc.
func addDelta(acc, b0, b1 []promSample) []promSample {
	if acc == nil {
		acc = make([]promSample, len(b1))
		for i := range acc {
			acc[i] = promSample{}
		}
	}
	for i := range b1 {
		for k, v := range b1[i] {
			acc[i][k] += v - b0[i][k]
		}
	}
	return acc
}

// fleetLayers records the /metrics deltas: latencies over the base chunks
// (base holds their summed deltas), cache counts over every measured
// phase (start to end), since the memory layer fills and starts evicting
// only under the ladder's and the saturation bursts' traffic.
func (e *env) fleetLayers(base, start, end []promSample, bs phaseStats) {
	workers := []int{}
	for i := 0; i < serveWorkers; i++ {
		workers = append(workers, i)
	}
	coord := []int{serveWorkers}
	before := make([]promSample, len(base)) // zero: base already holds deltas
	after := base
	e.set("serving.admission_wait_ms_p50", 1e3*histQuantile(before, after, workers, "serve_admission_wait_seconds", 0.5))
	e.set("serving.admission_wait_ms_p99", 1e3*histQuantile(before, after, workers, "serve_admission_wait_seconds", 0.99))
	e.set("serving.request_ms_p50", 1e3*histQuantile(before, after, workers, "serve_request_seconds", 0.5))
	hits := delta(start, end, workers, "cache_hits_total")
	misses := delta(start, end, workers, "cache_misses_total")
	e.set("runner.cache_hit_frac", ratio(hits, hits+misses))
	e.set("runner.cache_mem_evictions", delta(start, end, workers, "cache_mem_evictions_total"))
	e.set("cluster.dispatch_ms_p50", 1e3*histQuantile(before, after, coord, "cluster_dispatch_seconds", 0.5))
	e.set("cluster.dispatch_ms_p99", 1e3*histQuantile(before, after, coord, "cluster_dispatch_seconds", 0.99))
	aff := delta(before, after, coord, "cluster_affinity_hits_total")
	e.set("cluster.affinity_frac", ratio(aff, aff+delta(before, after, coord, "cluster_affinity_misses_total")))
	e.set("cluster.retry_frac", ratio(delta(before, after, coord, "cluster_retries_total"), delta(before, after, coord, "cluster_dispatched_total")))
	e.set("loadgen.late_ms_p99", quantile(sortedCopy(bs.late), 0.99))
}

// replayStores replays worker 0's share of the base phase through
// runner.Cache and runindex.Catalog on a copy of its (stopped) cache
// directory.
func (e *env) replayStores(f *fleet, g *trafficGen, base []*request) error {
	dir := filepath.Join(e.workDir, "replay")
	if err := copyDir(f.dirs[0], dir); err != nil {
		return err
	}
	var seq []*request
	for _, r := range base {
		if r.status == http.StatusOK && r.kind != kindQuery && r.worker == f.workers[0] {
			seq = append(seq, r)
		}
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].sentAt.Before(seq[j].sentAt) })

	// Miss results are loaded first through a separate cache instance, so
	// loading them does not disturb the timed cache's memory layer.
	loader, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: dir, MemBytes: 1}, nil)
	if err != nil {
		return err
	}
	missRes := map[string]*sim.Result{}
	for _, r := range seq {
		if r.kind == kindMiss {
			res, ok := loader.Get(r.key)
			e.check(ok, "miss %s not stored on worker 0", r.path)
			if ok {
				missRes[r.key] = res
			}
		}
	}
	loader.Close()

	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: dir, MemBytes: serveMemMiB << 20}, nil)
	if err != nil {
		return err
	}
	var gets, puts []float64
	for _, r := range seq {
		if res, ok := missRes[r.key]; ok {
			t0 := time.Now()
			cache.Put(r.key, res)
			puts = append(puts, float64(time.Since(t0))/1e3)
			continue
		}
		t0 := time.Now()
		_, ok := cache.Get(r.key)
		gets = append(gets, float64(time.Since(t0))/1e3)
		e.check(ok, "replayed hit %s missed the cache copy", r.path)
	}
	if err := cache.Close(); err != nil {
		return err
	}
	gs := sortedCopy(gets)
	e.set("runner.cache_get_us_p50", quantile(gs, 0.5))
	e.set("runner.cache_get_us_p99", quantile(gs, 0.99))
	e.set("runner.cache_put_us_p50", median(puts))

	catalog, err := runindex.Open(filepath.Join(dir, "catalog"), runindex.Options{})
	if err != nil {
		return err
	}
	defer catalog.Close()
	var queries, ingests []float64
	for _, r := range base {
		if r.kind != kindQuery {
			continue
		}
		u, err := url.Parse(r.path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		q, err := runindex.ParseQuery(u.Query())
		if err != nil {
			return err
		}
		catalog.Run(&q)
		queries = append(queries, float64(time.Since(t0))/1e3)
	}
	for _, k := range sortedKeys(missRes) {
		sum := sha256.Sum256([]byte("replay/" + k))
		rec := runindex.FromResult(hex.EncodeToString(sum[:]), missRes[k])
		t0 := time.Now()
		catalog.Ingest(rec)
		ingests = append(ingests, float64(time.Since(t0))/1e3)
	}
	qs := sortedCopy(queries)
	e.set("runindex.query_us_p50", quantile(qs, 0.5))
	e.set("runindex.query_us_p99", quantile(qs, 0.99))
	e.set("runindex.ingest_us_p50", median(ingests))
	e.note("replay on worker 0's store copy: %d gets, %d puts, %d queries, %d ingests", len(gets), len(puts), len(queries), len(ingests))
	return nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
