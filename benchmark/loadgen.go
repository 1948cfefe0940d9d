package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count of the serving workloads: one
// per core of the 2-core machine the bounds were set on, so the load
// generator never out-numbers the CPUs it shares with the servers.
const clients = 2

// request is one pre-built HTTP call and the answer it must get.
type request struct {
	url    string // full URL, e.g. http://127.0.0.1:4000/v1/select
	tenant string // X-Bao-Tenant; "" for a single-tenant server
	sql    string
	body   []byte // {"sql": ...}, marshalled once at set-up
	// wantArm is the arm a frozen model must return for this SQL
	// (-1 = not checked); wantRows is the native row count (-1 = not
	// checked). Both are computed at set-up through the library API.
	wantArm  int
	wantRows int
}

func newRequest(url, tenant, sql string) request {
	body, _ := json.Marshal(map[string]string{"sql": sql}) // a map of strings cannot fail to marshal
	return request{url: url, tenant: tenant, sql: sql, body: body, wantArm: -1, wantRows: -1}
}

// reply is the union of the /v1/select and /v1/query response fields the
// answer checks read.
type reply struct {
	ArmID         int     `json:"arm_id"`
	Rows          int     `json:"rows"`
	SimulatedSecs float64 `json:"simulated_secs"`
}

var httpClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        2 * clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     90 * time.Second,
	},
}

// send issues rq and reports the decoded reply. A transport error, a
// non-200 status, or an answer that differs from the one computed at
// set-up is an error: each counts as a failed operation.
func send(rq *request, reqID string) (reply, error) {
	var rep reply
	req, err := http.NewRequest(http.MethodPost, rq.url, bytes.NewReader(rq.body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rq.tenant != "" {
		req.Header.Set("X-Bao-Tenant", rq.tenant)
	}
	if reqID != "" {
		req.Header.Set("X-Bao-Request-Id", reqID)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return rep, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s: status %d: %.120s", rq.url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, err
	}
	if rq.wantArm >= 0 && rep.ArmID != rq.wantArm {
		return rep, fmt.Errorf("arm %d, library Select chose %d: %.80s", rep.ArmID, rq.wantArm, rq.sql)
	}
	if rq.wantRows >= 0 && rep.Rows != rq.wantRows {
		return rep, fmt.Errorf("%d rows, native plan returns %d: %.80s", rep.Rows, rq.wantRows, rq.sql)
	}
	return rep, nil
}

// round is one measured interval of a closed loop (or one pass of a
// fixed-work loop): how many operations got a correct answer, how many
// did not, their latencies, and the process CPU the interval used.
type round struct {
	ok, failed int
	wall, cpu  float64   // seconds
	lats       []float64 // seconds, correct operations only
	heapMB     float64   // live heap when the round ended
	firstErr   error
}

func (r round) qps() float64        { return ratio(float64(r.ok), r.wall) }
func (r round) p50ms() float64      { return median(r.lats) * 1e3 }
func (r round) p99ms() float64      { return percentile(r.lats, 99) * 1e3 }
func (r round) cpuMsPerOp() float64 { return ratio(r.cpu*1e3, float64(r.ok)) }
func (r round) liveHeapMB() float64 { return r.heapMB }

// closedLoop runs operations [from, from+count) on n clients: each takes
// the next index, calls do and waits for it before taking another.
// Callers of Bao are database connections that block on the hint set, so
// the load is closed-loop; an open-loop schedule would mostly measure
// this VM's timer, which wakes ~0.7 ms late (see openLoop). The work is
// a fixed count, not a fixed time, so that every round of a workload
// does identical work and rounds can be compared.
func closedLoop(n, from, count int, do func(i int) error) round {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		out    round
		cursor atomic.Int64
		cpu0   = cpuSeconds()
		t0     = time.Now()
	)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []float64
			var failed int
			var firstErr error
			for {
				i := int(cursor.Add(1) - 1)
				if i >= count {
					break
				}
				start := time.Now()
				if err := do(from + i); err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lats = append(lats, time.Since(start).Seconds())
			}
			mu.Lock()
			out.lats = append(out.lats, lats...)
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(t0).Seconds()
	out.cpu = cpuSeconds() - cpu0
	out.ok = len(out.lats)
	return out
}

// repeatRounds calls one, which does a fixed amount of work, until the
// measured time is used up, and at least twice. It stops at the first
// round that could not run at all.
func repeatRounds(seconds float64, rep *report, one func(i int) (round, error)) []round {
	var rounds []round
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		r, err := one(i)
		if err != nil {
			rep.problem("round %d: %v", i, err)
			return rounds
		}
		rep.count(r.ok+r.failed, r.failed, r.firstErr)
		r.heapMB = liveHeapMB()
		rounds = append(rounds, r)
	}
	return rounds
}

// openLoop is the diagnostic probe ROADMAP item 1 asks for: requests
// fall due at a fixed rate whatever the server does, each is timed from
// its due time (so a stall is charged to every request it delays), and
// the generator reports how late it ran. It is a layer metric, not an
// end-to-end one: the timer lag it reports is several times the hit
// path's service time on this VM.
type openResult struct {
	sent           int
	latP50, latP99 float64 // ms, from due time
	lagP99         float64 // ms, send time minus due time
	failed         int
	firstErr       error
}

func openLoop(conns int, rate float64, d time.Duration, do func(i int) error) openResult {
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		lats, lags []float64
		res        openResult
		interval   = time.Duration(float64(time.Second) / rate)
		t0         = time.Now()
		total      = int(d.Seconds() * rate)
		next       atomic.Int64
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(due)
				err := do(i)
				lat := time.Since(due)
				mu.Lock()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					lats = append(lats, lat.Seconds()*1e3)
					lags = append(lags, lag.Seconds()*1e3)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.sent = len(lats) + res.failed
	res.latP50, res.latP99, res.lagP99 = median(lats), percentile(lats, 99), percentile(lags, 99)
	return res
}

// bestOf picks, per metric, the best round: on a shared machine
// interference only ever slows a round down, so the fastest round is the
// least contaminated estimate of what the code can do.
func bestOf(rs []round, f func(round) float64, higherBetter bool) float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = f(r)
	}
	if higherBetter {
		return percentile(vals, 100)
	}
	return percentile(vals, 0)
}
