package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// cycleTail is the serve-cycle tail percentile: a run holds about a
// hundred cycles, so about ten lie beyond it.
const cycleTail = 0.9

func runCycle(ctx context.Context, p runParams) (*outcome, error) {
	env, setupS, err := timedSetup(func() (*serveEnv, error) { return setupServe(ctx, p.seed) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	h := env.srv.Handler()
	out := &outcome{}
	before, err := models(h)
	if err != nil {
		return nil, err
	}
	seq := before.CurrentSeq

	var t *tracer
	if p.traced {
		t = newTracer()
	}
	var (
		times, allocs       []float64
		remodels, stageSums []float64
		analyzes, coreSums  []float64
		tracedWalls         []float64
		nrmse               float64
		quarantined, maxQ   float64
		layer               = samples{}
		raw                 []trace.Record
		hour                = env.win.Summary().LatestSlotEnd
	)
	end := deadline(p)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		hour = hour.Add(time.Hour)
		if raw, err = env.feed.pull(hour, raw[:0]); errors.Is(err, errFeedOut) {
			out.notef("the feed ran out after %d cycles", len(times))
			break
		} else if err != nil {
			return nil, err
		}
		var ft *feedTimes
		if t != nil {
			t.beginOp()
			ft = &feedTimes{}
		}
		a0 := allocated()
		start := time.Now()
		env.feed.push(env.win, raw, ft)
		remodelStart := time.Now()
		rerr := env.srv.RemodelNow(ctx)
		done := time.Now()
		allocs = append(allocs, float64(allocated()-a0)/1e6)
		times = append(times, done.Sub(start).Seconds())
		remodels = append(remodels, done.Sub(remodelStart).Seconds())

		out.attempted++
		out.checkf(rerr == nil, "cycle %d: RemodelNow: %v", out.attempted, rerr)
		m, err := models(h)
		var sv summaryView
		if err == nil {
			err = getJSON(h, "/summary", &sv)
		}
		out.checkf(err == nil, "cycle %d: %v", out.attempted, err)
		if err == nil {
			// The feed guards quarantine towers whose clean weekend traffic
			// departs from their weekday-dominated baseline; those are left
			// out of the model, so the count is checked against the window.
			want := serveTowers - sv.Window.Quarantined
			out.checkf(m.CurrentSeq == seq+1, "cycle %d: published seq %d, want %d", out.attempted, m.CurrentSeq, seq+1)
			out.checkf(sv.Window.Towers == serveTowers, "cycle %d: the window holds %d towers, want %d", out.attempted, sv.Window.Towers, serveTowers)
			out.checkf(m.Generations[0].Towers == want, "cycle %d: published %d towers, want %d (%d quarantined)", out.attempted, m.Generations[0].Towers, want, sv.Window.Quarantined)
			quarantined = float64(sv.Window.Quarantined)
			maxQ = max(maxQ, quarantined)
			out.checkf(m.Rejected == 0, "cycle %d: %d candidates rejected on a clean feed", out.attempted, m.Rejected)
			nr := m.Generations[0].Stats.BacktestNRMSE
			out.checkf(nr != nil && *nr > 0 && *nr < 1, "cycle %d: backtest NRMSE %v outside (0, 1)", out.attempted, nr)
			if nr != nil {
				nrmse = *nr
			}
			seq = m.CurrentSeq
		}
		if t == nil {
			continue
		}
		t.record("trace.clean", 0, start, remodelStart, ft.clean, 1)
		t.record("window.add_batch", 0, start, remodelStart, ft.add, 1)
		t.record("serve.RemodelNow", 0, remodelStart, done, done.Sub(remodelStart), 1)
		tc, err := tracedRemodel(ctx, t, env)
		if err != nil {
			return nil, err
		}
		stageSums = append(stageSums, tc.sum)
		analyzes = append(analyzes, tc.analyze)
		coreSums = append(coreSums, tc.coreSum)
		tracedWalls = append(tracedWalls, tc.wall)
		layer.addSelf(t, t.op)
		layer.add("trace.records", float64(ft.in))
		layer.add("trace.clean.kept_ratio", float64(ft.out)/float64(max(ft.in, 1)))
		layer.add("forecast.failures", float64(tc.forecastFailures))
		layer.add("window.quarantined", quarantined)
	}

	if t != nil {
		m := layer.medians()
		rn, sum := median(remodels), median(stageSums)
		an, coreSum := median(analyzes), median(coreSums)
		m["serve.remodel_residual_s"] = rn - sum
		m["core.residual_s"] = an - coreSum
		m["bench.stage_sum_share"] = sum / rn
		m["bench.tracing_overhead_s"] = median(tracedWalls) - rn
		out.checkf(math.Abs(sum/rn-1) <= stageSumTolerance, "traced remodel stage sum %.4fs is not within %.0f%% of RemodelNow's %.4fs", sum, 100*stageSumTolerance, rn)
		out.checkf(math.Abs(coreSum/an-1) <= stageSumTolerance, "traced core stage sum %.4fs is not within %.0f%% of core.AnalyzeContext's %.4fs", coreSum, 100*stageSumTolerance, an)
		out.metrics = m
		path, err := t.write(spanDir(p), fmt.Sprintf("serve-cycle-seed%d.jsonl", p.seed))
		if err != nil {
			return nil, err
		}
		out.notef("spans in %s", path)
		out.notef("RemodelNow %.4fs, traced stage sum %.4fs; core.AnalyzeContext %.4fs, core stage sum %.4fs", rn, sum, an, coreSum)
		return out, nil
	}

	p50 := median(times)
	tl, beyond := quantile(times, cycleTail), int(float64(len(times))*(1-cycleTail))
	out.metrics = map[string]float64{
		"setup_s":        setupS,
		"op_p50_ms":      1000 * p50,
		"op_alloc_mb":    median(allocs),
		"capacity_per_s": float64(len(times)) / sum(times),
	}
	out.notef("remodel_p50_s=%.4f s remodel_tail_s=%.4f s (p%.0f of %d cycles, %d beyond) remodel_alloc_mb=%.1f MB forecast_nrmse=%.4f quarantined_towers_max=%.0f",
		p50, tl, 100*cycleTail, len(times), beyond, median(allocs), nrmse, maxQ)
	return out, nil
}

// tracedCycle is what the traced decomposition of one remodel measured.
type tracedCycle struct {
	sum              float64 // window + analysis + anomaly + forecasts + validity, seconds
	wall             float64 // the same calls end to end, span bookkeeping included
	analyze          float64 // the core.AnalyzeContext call
	coreSum          float64 // its traced stage calls
	forecastFailures int
}

// tracedRemodel repeats, one traced span each, the calls RemodelNow makes
// on the window it just modeled: the dataset handoff, the analysis (and
// its stages), the anomaly sweep, the per-tower forecasts and the
// admission-validity kernels.
func tracedRemodel(ctx context.Context, t *tracer, env *serveEnv) (*tracedCycle, error) {
	tc := &tracedCycle{}
	wallStart := time.Now()
	var (
		ds  *pipeline.Dataset
		res *core.Result
	)
	d, err := t.do("window.dataset", 0, func() (err error) {
		ds, err = env.win.Dataset()
		return err
	})
	if err != nil {
		return nil, err
	}
	tc.sum += d.Seconds()
	opts := core.Options{Seed: 1}
	d, err = t.do("core.AnalyzeContext", 0, func() (err error) {
		res, err = core.AnalyzeContext(ctx, ds, env.city.POIs, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	tc.sum += d.Seconds()
	tc.analyze = d.Seconds()
	d, err = t.do("anomaly.detect_all", 0, func() error {
		_, err := anomaly.DetectAll(ds.Raw, ds.Days, anomaly.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	tc.sum += d.Seconds()

	// The forecasts, as serve's buildForecasts makes them: a backtest on
	// the held-out final week, then a fit on the whole window and a
	// next-day prediction, per tower.
	if ds.Days >= 14 {
		spd := ds.SlotsPerDay()
		var backtest, fitPredict time.Duration
		start := time.Now()
		for _, row := range ds.Raw {
			b0 := time.Now()
			m := &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands}
			_, err := forecast.Backtest(m, row, ds.Days, ds.Days-7, spd)
			b1 := time.Now()
			backtest += b1.Sub(b0)
			if err != nil {
				tc.forecastFailures++
				continue
			}
			full := &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands}
			err = full.Fit(row, ds.Days, spd)
			if err == nil {
				_, err = full.Predict(spd)
			}
			fitPredict += time.Since(b1)
			if err != nil {
				tc.forecastFailures++
			}
		}
		end := time.Now()
		t.record("forecast.backtest", 0, start, end, backtest, len(ds.Raw))
		t.record("forecast.fit_predict", 0, start, end, fitPredict, len(ds.Raw))
		tc.sum += (backtest + fitPredict).Seconds()
	}

	d, err = t.do("cluster.validity", 0, func() error {
		if _, err := cluster.DaviesBouldinWorkers(ds.Normalized, res.Assignment, opts.Workers); err != nil {
			return err
		}
		_, err := cluster.SilhouetteWorkers(ds.Normalized, res.Assignment, opts.Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	tc.sum += d.Seconds()
	tc.wall = time.Since(wallStart).Seconds()

	tc.coreSum, err = tracedAnalyze(ctx, t, 0, ds, env.city.POIs, opts, res)
	if err != nil {
		return nil, err
	}
	return tc, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
