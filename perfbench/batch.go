package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The batch-trace city: a gentrace-shaped trace (five users per tower)
// sized so that one pass takes about three seconds on a 2-vCPU machine
// and a measured run holds several. At 200 towers the tuner finds four
// clusters for some seeds; at 300 it finds the five regions for every
// seed tried.
const (
	batchTowers = 300
	batchUsers  = 5 * batchTowers
	batchDays   = 14
	// batchIngestWorkers is what cmd/analyze's -ingest-workers default
	// (all cores) resolves to on the 2-vCPU reference machine.
	batchIngestWorkers = 2
	// batchK is the number of functional regions the city is built from.
	batchK = 5
	// batchARIFloor is the lowest acceptable agreement between the
	// clustering and the city's ground-truth regions.
	batchARIFloor = 0.9
)

// batchInput is the generated trace: the CSV bytes plus the metadata
// cmd/analyze reads from towers.csv and poi.csv.
type batchInput struct {
	city    *synth.City
	csv     []byte
	records int
}

func setupBatch(seed int64) (*batchInput, error) {
	cfg := synth.SmallConfig()
	cfg.Towers = batchTowers
	cfg.Users = batchUsers
	cfg.Days = batchDays
	cfg.Seed = seed
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating city: %w", err)
	}
	series, err := generateSeries(city)
	if err != nil {
		return nil, err
	}
	src := city.LogSource(series, synth.LogOptions{})
	defer src.Close()
	var buf bytes.Buffer
	buf.Grow(src.SizeHint() * 120)
	w := trace.NewCSVWriter(&buf)
	if err := trace.ForEachBatch(src, w.WriteBatch); err != nil {
		return nil, fmt.Errorf("rendering CSV: %w", err)
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("rendering CSV: %w", err)
	}
	return &batchInput{city: city, csv: buf.Bytes(), records: w.Count()}, nil
}

// ingestPolicy is cmd/analyze's default ingestion policy (-max-bad-rows
// -1): skip and count malformed rows, retry transient read errors.
func ingestPolicy() trace.ErrorPolicy {
	return trace.ErrorPolicy{
		Mode:  trace.PolicySkip,
		Retry: trace.RetryPolicy{MaxAttempts: 4, Backoff: 50 * time.Millisecond},
	}
}

func (in *batchInput) vectorizerOptions() pipeline.VectorizerOptions {
	cfg := in.city.Config
	return pipeline.VectorizerOptions{Start: cfg.Start, Days: cfg.Days, SlotMinutes: cfg.SlotMinutes}
}

// analyzeOptions are cmd/analyze's defaults: the DBI tuner, one NMF basis
// per cluster, float64, all cores, modeling seed 1.
func analyzeOptions(workers int) core.Options {
	return core.Options{Workers: workers, Seed: 1, NMFRank: core.NMFRankAuto, Precision: core.Float64}
}

// batchRun is one pass over the trace: CSV bytes to a complete result.
type batchRun struct {
	ds       *pipeline.Dataset
	res      *core.Result
	skip     trace.SkipStats
	clean    trace.CleanStats
	total    time.Duration // whole pass, traced or not
	analyze  time.Duration // the core.AnalyzeContext call alone
	stageSum float64       // traced passes: summed stage spans, seconds
}

// runBatchPass makes the calls cmd/analyze -trace makes. With a tracer
// it wraps the streaming layers and then repeats the modeling as traced
// stage calls after the untraced core.AnalyzeContext.
func runBatchPass(ctx context.Context, in *batchInput, t *tracer) (*batchRun, error) {
	start := time.Now()
	src, err := trace.NewIngestSourceContext(ctx, bytes.NewReader(in.csv), batchIngestWorkers, ingestPolicy())
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer src.Close()
	var (
		parsed  trace.Source = src
		cleaned *trace.CleanedSource
		toVec   trace.Source
		parseT  *timedSource
		cleanT  *timedSource
	)
	if t != nil {
		parseT = &timedSource{src: src}
		parsed = parseT
	}
	cleaned = trace.CleanSourceWindow(parsed, 0)
	toVec = cleaned
	if t != nil {
		cleanT = &timedSource{src: cleaned}
		toVec = cleanT
	}
	vecStart := time.Now()
	ds, err := pipeline.VectorizeSourceContext(ctx, toVec, in.city.TowerInfos(), in.vectorizerOptions())
	if err != nil {
		return nil, fmt.Errorf("vectorize: %w", err)
	}
	run := &batchRun{ds: ds, skip: src.Stats(), clean: cleaned.Stats()}
	if t != nil {
		vec := t.record("pipeline.vectorize", 0, vecStart, time.Now(), time.Since(vecStart), 1)
		cl := cleanT.span(t, "trace.clean", vec)
		parseT.span(t, "trace.parse", cl)
	}
	anStart := time.Now()
	res, err := core.AnalyzeContext(ctx, ds, in.city.POIs, analyzeOptions(0))
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	run.analyze = time.Since(anStart)
	run.res = res
	if t != nil {
		t.record("core.AnalyzeContext", 0, anStart, anStart.Add(run.analyze), run.analyze, 1)
		if run.stageSum, err = tracedAnalyze(ctx, t, 0, ds, in.city.POIs, analyzeOptions(0), res); err != nil {
			return nil, err
		}
	}
	run.total = time.Since(start)
	if t != nil {
		// The traced pass end to end is the traced ingest plus the traced
		// stages; the untraced call only anchors the stage-sum check.
		run.total -= run.analyze
	}
	return run, nil
}

// timedSource wraps a record source and sums the time spent inside it:
// the busy time of a streaming layer pulled by the one downstream of it.
type timedSource struct {
	src         trace.BatchSource
	first, last time.Time
	busy        time.Duration
	calls       int
}

func (s *timedSource) Next() (trace.Record, error) {
	var one [1]trace.Record
	for {
		n, err := s.NextBatch(one[:])
		if n == 1 {
			return one[0], nil
		}
		if err != nil {
			return trace.Record{}, err
		}
	}
}

func (s *timedSource) NextBatch(dst []trace.Record) (int, error) {
	start := time.Now()
	n, err := s.src.NextBatch(dst)
	end := time.Now()
	if s.calls == 0 {
		s.first = start
	}
	s.last = end
	s.busy += end.Sub(start)
	s.calls++
	return n, err
}

// span records the accumulated calls as one span.
func (s *timedSource) span(t *tracer, name string, parent int) int {
	return t.record(name, parent, s.first, s.last, s.busy, s.calls)
}

// digest hashes what a batch run decided: the dataset, the clustering,
// the labels, the tuner curve and the NMF factors. float64 results are
// bit-identical across runs and worker counts, so the digest is too.
func digest(ds *pipeline.Dataset, res *core.Result) [32]byte {
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for i, id := range ds.TowerIDs {
		put(float64(id))
		put(ds.Raw[i]...)
	}
	put(float64(res.OptimalK))
	for _, l := range res.Assignment.Labels {
		put(float64(l))
	}
	for _, r := range res.TowerRegions {
		put(float64(r))
	}
	for _, p := range res.DBICurve {
		put(float64(p.K), p.DBI)
	}
	if res.NMF != nil {
		put(float64(res.NMF.Iterations), res.NMF.RelativeError)
		put(res.NMF.W.Data...)
		put(res.NMF.H.Data...)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// batchARI scores the clustering against the city's ground truth.
func batchARI(in *batchInput, ds *pipeline.Dataset, res *core.Result) (float64, error) {
	truth, err := in.city.GroundTruthRegions(ds)
	if err != nil {
		return 0, err
	}
	labels := make([]int, len(truth))
	for i, r := range truth {
		labels[i] = int(r)
	}
	return cluster.AdjustedRandIndex(labels, res.Assignment.Labels)
}

func runBatch(ctx context.Context, p runParams) (*outcome, error) {
	in, setupS, err := timedSetup(func() (*batchInput, error) { return setupBatch(p.seed) }, func(*batchInput) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var t *tracer
	if p.traced {
		t = newTracer()
	}
	var (
		times, allocs          []float64
		tracedTimes, stageSums []float64
		analyzeTimes           []float64 // the anchor call of each traced pass
		first                  [32]byte
		ari                    float64
		last                   *batchRun
		layer                  = samples{}
	)
	check := func(run *batchRun) float64 {
		out.attempted++
		d := digest(run.ds, run.res)
		if out.attempted == 1 {
			first = d
		}
		out.checkf(d == first, "batch pass %d: result digest differs from the first pass", out.attempted)
		out.checkf(run.res.OptimalK == batchK, "batch pass %d: k=%d, want %d", out.attempted, run.res.OptimalK, batchK)
		ari, err := batchARI(in, run.ds, run.res)
		out.checkf(err == nil && ari >= batchARIFloor, "batch pass %d: ARI %.4f (err %v) below %.2f", out.attempted, ari, err, batchARIFloor)
		out.checkf(run.skip.SkippedRows() == 0, "batch pass %d: %d rows skipped in a well-formed trace", out.attempted, run.skip.SkippedRows())
		return ari
	}

	end := deadline(p)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		runtime.GC()
		a0 := allocated()
		run, err := runBatchPass(ctx, in, nil)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(allocated()-a0)/1e6)
		times = append(times, run.total.Seconds())
		ari = check(run)
		last = run
		if t == nil {
			continue
		}
		// Traced pass right after the untraced one, on the same input.
		runtime.GC()
		t.beginOp()
		traced, err := runBatchPass(ctx, in, t)
		if err != nil {
			return nil, err
		}
		check(traced)
		tracedTimes = append(tracedTimes, traced.total.Seconds())
		analyzeTimes = append(analyzeTimes, traced.analyze.Seconds())
		stageSums = append(stageSums, traced.stageSum)
		layer.addSelf(t, t.op)
		layer.add("trace.records", float64(traced.clean.Input))
		layer.add("trace.rows_skipped", float64(traced.skip.SkippedRows()))
		layer.add("trace.clean.kept_ratio", float64(traced.clean.Output)/float64(traced.clean.Input))
		layer.add("nmf.iterations", float64(traced.res.NMF.Iterations))
	}

	// The same analysis on one worker: the result must not change, and in
	// a traced run its time is the single-thread baseline.
	serialStart := time.Now()
	serial, err := core.AnalyzeContext(ctx, last.ds, in.city.POIs, analyzeOptions(1))
	serialS := time.Since(serialStart).Seconds()
	out.attempted++
	out.checkf(err == nil && digest(last.ds, serial) == first, "analysis with Workers 1 differs from the default worker count (err %v)", err)

	if t != nil {
		m := layer.medians()
		m["core.analyze_serial_s"] = serialS
		an, sum := median(analyzeTimes), median(stageSums)
		m["core.residual_s"] = an - sum
		m["bench.stage_sum_share"] = sum / an
		m["bench.tracing_overhead_s"] = median(tracedTimes) - median(times)
		out.checkf(math.Abs(sum/an-1) <= stageSumTolerance, "traced stage sum %.3fs is not within %.0f%% of core.AnalyzeContext's %.3fs", sum, 100*stageSumTolerance, an)
		out.metrics = m
		path, err := t.write(spanDir(p), fmt.Sprintf("batch-trace-seed%d.jsonl", p.seed))
		if err != nil {
			return nil, err
		}
		out.notef("spans in %s", path)
		out.notef("core.AnalyzeContext %.3fs, traced stage sum %.3fs, one worker %.3fs", an, sum, serialS)
		return out, nil
	}

	p50 := median(times)
	out.metrics = map[string]float64{
		"setup_s":        setupS,
		"op_p50_ms":      1000 * p50,
		"op_alloc_mb":    median(allocs),
		"capacity_per_s": float64(in.records) / p50,
	}
	// With under twenty passes no percentile above the median has ten
	// passes beyond it, so the median is the only timing reported.
	out.notef("batch_s=%.4f s (median of %d passes) batch_alloc_mb=%.1f MB batch_ari=%.4f records=%d csv_mb=%.1f",
		p50, len(times), median(allocs), ari, in.records, float64(len(in.csv))/1e6)
	return out, nil
}

// stageSumTolerance is how far the traced stage sums may land from the
// untraced call they decompose before the traced run fails.
const stageSumTolerance = 0.2
