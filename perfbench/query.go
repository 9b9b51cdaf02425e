package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

const (
	// queryConns is the number of keep-alive client connections: one per
	// core of the 2-vCPU reference machine.
	queryConns = 2
	// queryRefRate is the fixed reference rate of query_p50_ms and
	// query_p99_ms: about half the capacity the parent commit of this
	// benchmark measured on the 2-vCPU reference machine.
	queryRefRate = 3000
	// queryLimit is the p99 latency limit of the capacity search.
	queryLimit = 10 * time.Millisecond
	// queryLateLimit is how late the generator may send at p99 before a
	// run is invalid: beyond it the harness, not the server, is measured.
	queryLateLimit = time.Millisecond
	// writerRate is the writer's target in records per second, pushed in
	// ticks of writerTick.
	writerRate = 10000
	writerTick = 10 * time.Millisecond
)

// queryLadder are the rates the capacity search may report: 5% apart,
// from 1,000 to about 32,000 requests per second.
var queryLadder = func() []float64 {
	var out []float64
	for r := 1000.0; r < 32000; r *= 1.05 {
		out = append(out, math.Round(r))
	}
	return out
}()

// Request kinds of the query mix.
const (
	kindTower = iota
	kindOverride
	kindSummary
	kindTowers
	numKinds
)

var kindNames = [numKinds]string{"tower", "tower_override", "summary", "towers"}

type request struct {
	kind  int
	tower int
	path  string
}

// queryMix draws n requests: 85% /towers/{id} with a uniform id, 5% the
// same with a ?threshold= override (which re-runs the detector and
// defeats any per-generation response cache), 8% /summary, 2% /towers.
func queryMix(seed int64, n int, ids []int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		id := ids[rng.Intn(len(ids))]
		switch u := rng.Float64(); {
		case u < 0.85:
			out[i] = request{kindTower, id, "/towers/" + strconv.Itoa(id)}
		case u < 0.90:
			th := 2.5 + float64(rng.Intn(200))/100
			out[i] = request{kindOverride, id, fmt.Sprintf("/towers/%d?threshold=%.2f", id, th)}
		case u < 0.98:
			out[i] = request{kindSummary, 0, "/summary"}
		default:
			out[i] = request{kindTowers, 0, "/towers"}
		}
	}
	return out
}

// queryEnv is the serve environment behind a loopback listener, plus the
// raw feed the writer pushes during the run.
type queryEnv struct {
	*serveEnv
	writerFeed []trace.Record
}

func setupQuery(ctx context.Context, p runParams) (*queryEnv, error) {
	env, err := setupServe(ctx, p.seed)
	if err != nil {
		return nil, err
	}
	// Enough feed for the writer to run the whole measured part.
	need := int(writerRate * (1.5*p.seconds + 5))
	hour := env.win.Summary().LatestSlotEnd
	var raw []trace.Record
	for len(raw) < need {
		hour = hour.Add(time.Hour)
		if raw, err = env.feed.pull(hour, raw); err != nil {
			env.close()
			return nil, err
		}
	}
	return &queryEnv{serveEnv: env, writerFeed: raw}, nil
}

func runQuery(ctx context.Context, p runParams) (*outcome, error) {
	env, setupS, err := timedSetup(func() (*queryEnv, error) { return setupQuery(ctx, p) }, (*queryEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	h := env.srv.Handler()
	m, err := models(h)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	g, err := newLoadgen("http://"+ln.Addr().String(), queryMix(p.seed, 1<<16, env.win.TowerIDs()), m.CurrentSeq)
	if err != nil {
		return nil, err
	}
	defer g.close()

	out := &outcome{}
	if p.traced {
		return out, tracedQuery(p, env, h, g, out)
	}

	w := startWriter(env, nil)
	g.run(queryRefRate, 500*time.Millisecond, nil) // warm-up: connections, pools, heap
	total := time.Duration(p.seconds * float64(time.Second))
	want := int(total * 40 / 100 / time.Second)
	a0, sent0 := allocated(), g.sent.Load()
	ref, segs, tried := g.reference(want)
	allocPerReq := float64(allocated()-a0) / 1e6 / float64(max(g.sent.Load()-sent0, 1))
	backlogs := make([]float64, len(segs))
	for i, sg := range segs {
		backlogs[i] = float64(sg.backlog)
	}
	refOK := segmentMedian(segs, 0.99) <= float64(queryLimit)/1e6 && median(backlogs) <= float64(backlogLimit(queryRefRate))
	capacity, probes := g.capacity(refOK, total*55/100)
	fed := w.stop()
	g.account(out)

	out.checkf(fed.rate >= 0.95*writerRate, "the writer reached %.0f records/s of its %d target", fed.rate, writerRate)
	p50, p99 := segmentMedian(segs, 0.5), segmentMedian(segs, 0.99)

	if 2*len(segs) < want {
		// The harness could not keep its schedule: the run's latencies
		// measure the machine, not the server. The run is marked invalid
		// rather than failed, since no output of the program was wrong.
		out.notef("run invalid: the generator ran late in %d of %d one-second segments", tried-len(segs), tried)
		warnf("serve-query run invalid: the generator ran late in %d of %d one-second segments", tried-len(segs), tried)
	}
	out.metrics = map[string]float64{
		"setup_s":        setupS,
		"op_p50_ms":      p50,
		"op_alloc_mb":    allocPerReq,
		"capacity_per_s": capacity,
	}
	out.notef("query_p50_ms=%.4f query_p99_ms=%.4f (medians over %d valid of %d one-second segments; %d requests at %d req/s) query_max_rps=%.0f (%d probes) feed_records_per_s=%.0f (target %d) late_p99_ms=%.4f",
		p50, p99, len(segs), tried, ref.sent, queryRefRate, capacity, probes, fed.rate, writerRate, ref.lateP99())
	return out, nil
}

// tracedQuery times each route in-process through the handler, then
// drives the reference rate with the traced writer beside it.
func tracedQuery(p runParams, env *queryEnv, h http.Handler, g *loadgen, out *outcome) error {
	t := newTracer()
	layer := samples{}
	ids := env.win.TowerIDs()
	for kind := 0; kind < numKinds; kind++ {
		t.beginOp()
		var reqs []request
		for _, r := range g.reqs {
			if r.kind == kind {
				reqs = append(reqs, r)
			}
			if len(reqs) == len(ids) {
				break
			}
		}
		name := "serve.http." + kindNames[kind]
		for _, r := range reqs {
			req := httptest.NewRequest(http.MethodGet, r.path, nil)
			rec := httptest.NewRecorder()
			d, _ := t.do(name, 0, func() error { h.ServeHTTP(rec, req); return nil })
			out.attempted++
			out.checkf(rec.Code == http.StatusOK, "in-process GET %s: status %d", r.path, rec.Code)
			layer.add(name+"_s", d.Seconds())
			layer.add(name+"_bytes", float64(rec.Body.Len()))
		}
	}

	t.beginOp()
	w := startWriter(env, t)
	total := time.Duration(p.seconds * float64(time.Second))
	ref := g.run(queryRefRate, total*8/10, t)
	fed := w.stop()
	g.account(out)
	for _, ft := range fed.ticks {
		layer.add("trace.clean_s", ft.clean.Seconds())
		layer.add("window.add_batch_s", ft.add.Seconds())
		layer.add("trace.records", float64(ft.in))
		layer.add("trace.clean.kept_ratio", float64(ft.out)/float64(max(ft.in, 1)))
	}
	m := layer.medians()
	m["loadgen.late_p99_ms"] = ref.lateP99()
	m["loadgen.sent"] = float64(ref.sent)
	out.metrics = m
	path, err := t.write(spanDir(p), fmt.Sprintf("serve-query-seed%d.jsonl", p.seed))
	if err != nil {
		return err
	}
	out.notef("spans in %s", path)
	out.notef("traced load: %d requests at %d req/s, writer %.0f records/s", ref.sent, queryRefRate, fed.rate)
	return nil
}

// loadgen is the open-loop load generator: requests are due on a fixed
// schedule whatever the server does, go out over at most queryConns
// keep-alive connections, and are timed from when they were due.
type loadgen struct {
	base   string
	client *http.Client
	reqs   []request
	seq    uint64 // the model generation every response must carry
	pacers []*pacer

	sent, failed atomic.Int64
}

func newLoadgen(base string, reqs []request, seq uint64) (*loadgen, error) {
	tr := &http.Transport{
		MaxConnsPerHost:     queryConns,
		MaxIdleConnsPerHost: queryConns,
		DisableCompression:  true,
	}
	g := &loadgen{base: base, client: &http.Client{Transport: tr}, reqs: reqs, seq: seq}
	for i := 0; i < queryConns; i++ {
		pc, err := newPacer()
		if err != nil {
			g.close()
			return nil, err
		}
		g.pacers = append(g.pacers, pc)
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, pc := range g.pacers {
		pc.close()
	}
	g.client.CloseIdleConnections()
}

// account adds the requests sent so far to the run's correctness count.
func (g *loadgen) account(out *outcome) {
	out.attempted += int(g.sent.Load())
	out.failed += int(g.failed.Load())
}

// sample is one request of a load run.
type sample struct {
	due  float64 // seconds from the start of the run
	lat  float64 // ms from due to the end of the response
	late float64 // ms the generator woke after the due time; -1 when it was already behind
}

// loadResult is one constant-rate load run.
type loadResult struct {
	rate    float64
	dur     time.Duration
	samples []sample
	sent    int
	backlog int // requests due in the run that finished after it ended
}

// run sends at rate for dur. With a tracer it also records a span per
// request, once the senders have finished.
func (g *loadgen) run(rate float64, dur time.Duration, t *tracer) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		res   = loadResult{rate: rate, dur: dur}
		spans [][3]time.Time
	)
	for s := 0; s < queryConns; s++ {
		wg.Add(1)
		go func(pc *pacer) {
			defer wg.Done()
			var (
				buf     bytes.Buffer
				mine    []sample
				traced  [][3]time.Time
				backlog int
			)
			for {
				k := next.Add(1) - 1
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(end) {
					break
				}
				late := -1.0
				if time.Now().Before(due) {
					if err := pc.waitUntil(due); err != nil {
						g.fail("pacing: %v", err)
					}
					late = float64(time.Since(due)) / 1e6
				}
				sendAt := time.Now()
				g.do(g.reqs[int(k)%len(g.reqs)], &buf)
				done := time.Now()
				mine = append(mine, sample{due: due.Sub(start).Seconds(), lat: float64(done.Sub(due)) / 1e6, late: late})
				if done.After(end) {
					backlog++
				}
				if t != nil {
					traced = append(traced, [3]time.Time{due, sendAt, done})
				}
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.sent += len(mine)
			res.backlog += backlog
			spans = append(spans, traced...)
			mu.Unlock()
		}(g.pacers[s])
	}
	wg.Wait()
	if t == nil {
		return res
	}
	for _, s := range spans {
		// Busy is the latency the client saw, measured from the due time.
		t.record("loadgen.request", 0, s[1], s[2], s[2].Sub(s[0]), 1)
	}
	return res
}

// do sends one request and checks the response: status 200, the model
// generation the run started with, and for tower routes the tower asked
// for.
func (g *loadgen) do(r request, buf *bytes.Buffer) {
	g.sent.Add(1)
	resp, err := g.client.Get(g.base + r.path)
	if err != nil {
		g.fail("GET %s: %v", r.path, err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		g.fail("GET %s: reading body: %v", r.path, err)
	case resp.StatusCode != http.StatusOK:
		g.fail("GET %s: status %d", r.path, resp.StatusCode)
	default:
		body := buf.Bytes()
		if seq, ok := jsonInt(body, `"seq": `); !ok || uint64(seq) != g.seq {
			g.fail("GET %s: model seq %d, want %d", r.path, seq, g.seq)
		}
		if r.kind == kindTower || r.kind == kindOverride {
			if id, ok := jsonInt(body, "\n  \"tower\": "); !ok || id != r.tower {
				g.fail("GET %s: body is for tower %d", r.path, id)
			}
		}
	}
}

// fail counts a failed request; the first few are reported.
func (g *loadgen) fail(format string, args ...any) {
	if g.failed.Add(1) <= 5 {
		warnf("check failed: "+format, args...)
	}
}

// jsonInt reads the integer that follows the first occurrence of key in
// an indented JSON body.
func jsonInt(body []byte, key string) (int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.Atoi(string(rest[:j]))
	return v, err == nil
}

// segment is a slice of a load run by due time.
type segment struct {
	lats, late []float64
	backlog    int // of the run the segment was, when it was a whole run
}

// segments splits the run into n equal pieces by due time.
func (r loadResult) segments(n int) []segment {
	n = max(n, 1)
	segs := make([]segment, n)
	for _, s := range r.samples {
		k := min(n-1, int(s.due*float64(n)/r.dur.Seconds()))
		segs[k].lats = append(segs[k].lats, s.lat)
		if s.late >= 0 {
			segs[k].late = append(segs[k].late, s.late)
		}
	}
	return segs
}

// lateP99 is the p99 of how late the generator woke for requests it
// waited for, or 0 when it never waited.
func (r loadResult) lateP99() float64 {
	var late []float64
	for _, s := range r.samples {
		if s.late >= 0 {
			late = append(late, s.late)
		}
	}
	if len(late) == 0 {
		return 0
	}
	return quantile(late, 0.99)
}

// reference runs the reference rate in one-second segments until it has
// want segments in which the generator kept to its schedule (late p99
// within queryLateLimit), or has tried twice as many. Segments where the
// generator ran late measure the harness, not the server, and are
// dropped, unless no segment was valid. It returns the kept segments'
// samples merged, the valid segments (or every segment when none was
// valid), and how many it tried.
func (g *loadgen) reference(want int) (loadResult, []segment, int) {
	var (
		merged, all = loadResult{rate: queryRefRate}, loadResult{rate: queryRefRate}
		valid, segs []segment
	)
	tried := 0
	for len(valid) < want && tried < 2*want {
		r := g.run(queryRefRate, time.Second, nil)
		tried++
		seg := r.segments(1)[0]
		seg.backlog = r.backlog
		segs = append(segs, seg)
		all.add(r)
		if len(seg.late) > 0 && quantile(seg.late, 0.99) > float64(queryLateLimit)/1e6 {
			continue
		}
		valid = append(valid, seg)
		merged.add(r)
	}
	if len(valid) == 0 {
		return all, segs, tried
	}
	return merged, valid, tried
}

// add merges the samples of another run at the same rate.
func (r *loadResult) add(o loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.sent += o.sent
}

// segmentMedian is the median over segments of each segment's
// q-quantile latency: one stall moves one segment, not the figure.
func segmentMedian(segs []segment, q float64) float64 {
	var vs []float64
	for _, s := range segs {
		if len(s.lats) > 0 {
			vs = append(vs, quantile(s.lats, q))
		}
	}
	return median(vs)
}

// keptUp reports whether a probe met the latency limit without a growing
// backlog: the median over its quarters of the p99 within queryLimit, and
// no more requests finishing after the probe than the limit's worth of
// arrivals plus one per connection.
func (r loadResult) keptUp() bool {
	return segmentMedian(r.segments(4), 0.99) <= float64(queryLimit)/1e6 && r.backlog <= backlogLimit(r.rate)
}

// probeAttempts is how many probes a ladder rung gets before it fails.
const probeAttempts = 3

// backlogLimit is the most requests that may finish after a run at rate
// ends without the backlog counting as growing.
func backlogLimit(rate float64) int {
	return int(rate*queryLimit.Seconds()) + queryConns
}

// capacity finds the highest ladder rate that keeps up, by bisection
// within budget. The reference run, which kept up or not, is the first
// probe. A rung fails only after probeAttempts failing probes, so a
// stall of the machine cannot end the search on its own.
func (g *loadgen) capacity(refOK bool, budget time.Duration) (float64, int) {
	probe := budget / 14
	lo, hi := -1, len(queryLadder)
	refIdx := 0
	for i, r := range queryLadder {
		if r <= queryRefRate {
			refIdx = i
		}
	}
	if refOK {
		lo = refIdx
	} else {
		hi = refIdx
	}
	probes := 0
	deadline := time.Now().Add(budget)
	for hi-lo > 1 && time.Now().Add(probeAttempts*probe).Before(deadline) {
		mid := (lo + hi) / 2
		ok := false
		for a := 0; a < probeAttempts && !ok; a++ {
			ok = g.run(queryLadder[mid], probe, nil).keptUp()
			probes++
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return queryLadder[0], probes
	}
	return queryLadder[lo], probes
}

// writer feeds the window beside the readers at writerRate, through the
// cleaner, on a fixed schedule of ticks.
type writer struct {
	env    *queryEnv
	traced bool
	stopc  chan struct{}
	done   chan writerResult
}

type writerResult struct {
	rate  float64
	ticks []feedTimes
	err   error
}

func startWriter(env *queryEnv, t *tracer) *writer {
	w := &writer{env: env, traced: t != nil, stopc: make(chan struct{}), done: make(chan writerResult, 1)}
	go w.loop()
	return w
}

func (w *writer) loop() {
	per := int(writerRate * writerTick.Seconds())
	feed := w.env.writerFeed
	var res writerResult
	start := time.Now()
	pushed := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * writerTick)
		select {
		case <-w.stopc:
			res.rate = float64(pushed) / time.Since(start).Seconds()
			w.done <- res
			return
		case <-time.After(time.Until(due)):
		}
		if len(feed) < per {
			res.err = errors.New("the writer's feed ran out")
			<-w.stopc
			res.rate = float64(pushed) / time.Since(start).Seconds()
			w.done <- res
			return
		}
		var ft *feedTimes
		if w.traced {
			ft = &feedTimes{}
		}
		w.env.feed.push(w.env.win, feed[:per], ft)
		feed = feed[per:]
		pushed += per
		if ft != nil {
			res.ticks = append(res.ticks, *ft)
		}
	}
}

// stop ends the writer and returns what it achieved.
func (w *writer) stop() writerResult {
	close(w.stopc)
	res := <-w.done
	if res.err != nil {
		warnf("%v", res.err)
		res.rate = 0
	}
	return res
}
