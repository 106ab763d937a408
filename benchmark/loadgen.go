package main

import (
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator. cmd/loadgen is closed-loop and times each
// request from its send, so a stalled server receives less load and the
// stall is hidden; here the schedule is fixed in advance (Poisson
// arrivals from the seed), every request is timed from when it was due,
// and the generator reports how late it sent. At most conns requests are
// outstanding (one per connection); a request whose turn comes while all
// connections are busy is sent late, and its lateness counts in its
// latency.

// request is one scheduled request and, after the run, its outcome.
type request struct {
	due  time.Duration // offset from the phase start
	kind int
	path string
	key  string // cache key of a /run request
	tup  int    // tuple index (population or miss) of a /run request

	fired      bool          // sent before the phase's stop time
	sent, done time.Duration // offsets from the phase start
	sentAt     time.Time     // wall-clock send time, to order requests across phases
	status     int           // 0 = transport error
	worker     string        // X-Cluster-Worker
	body       []byte
}

// latencyMs is the request's latency from its due time.
func (r *request) latencyMs() float64 { return float64(r.done-r.due) / 1e6 }

// lateMs is how late the generator sent the request.
func (r *request) lateMs() float64 { return float64(r.sent-r.due) / 1e6 }

// poisson returns arrival offsets at rate per second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// fire sends the schedule to base over conns connections and fills in
// each request's outcome. With stopAt > 0 no request is sent after stopAt
// (an overload phase ends on time instead of draining its backlog). It
// returns when every sent request has completed.
func fire(base string, reqs []*request, conns int, stopAt time.Duration) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		client := &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if stopAt > 0 && max(r.due, time.Since(start)) >= stopAt {
					return
				}
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				r.fired = true
				r.sentAt = time.Now()
				r.sent = r.sentAt.Sub(start)
				r.status, r.worker, r.body = send(client, base+r.path)
				r.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
}

func send(client *http.Client, url string) (int, string, []byte) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil
	}
	return resp.StatusCode, resp.Header.Get("X-Cluster-Worker"), body
}
