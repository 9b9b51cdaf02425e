package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

// The serving city: cmd/served's defaults (50 users per tower, a 14-day
// window, the admission gate and feed guards on) at 300 towers. The feed
// covers more days than the window so the runs have fresh hours to push.
const (
	serveTowers      = 300
	serveUsers       = 50 * serveTowers
	serveFeedDays    = 24
	serveWindowDays  = 14
	servePrefillDays = serveWindowDays + 1
	feedBatch        = 1024
)

// serveEnv is a served-shaped service: a pre-filled window, the
// streaming cleaner that fed it, and a server with one published model.
type serveEnv struct {
	city *synth.City
	win  *window.Window
	srv  *serve.Server
	feed *feeder
}

func setupServe(ctx context.Context, seed int64) (*serveEnv, error) {
	cfg := synth.SmallConfig()
	cfg.Towers = serveTowers
	cfg.Users = serveUsers
	cfg.Days = serveFeedDays
	cfg.Seed = seed
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating city: %w", err)
	}
	series, err := generateSeries(city)
	if err != nil {
		return nil, err
	}
	win, err := window.New(window.Options{Start: cfg.Start, SlotMinutes: cfg.SlotMinutes, Days: serveWindowDays})
	if err != nil {
		return nil, err
	}
	win.SetLocations(city.TowerInfos())
	win.SetGuards(window.Guards{
		MaxFutureSkew: 24 * time.Hour,
		Quarantine:    window.QuarantineOptions{ZThreshold: 8},
	})
	feed := newFeeder(city.LogSource(series, synth.LogOptions{TimeMajor: true}))
	for day := 1; day <= servePrefillDays; day++ {
		raw, err := feed.pull(cfg.Start.Add(time.Duration(day)*24*time.Hour), nil)
		if err != nil {
			feed.close()
			return nil, err
		}
		feed.push(win, raw, nil)
	}
	srv, err := serve.New(serve.Config{
		Window: win,
		POIs:   city.POIs,
		// cmd/served's modeling defaults: all cores, seed 1, float64.
		Analyze: core.Options{Seed: 1},
		Admission: serve.AdmitConfig{
			MinCoverage:        0.5,
			MaxValidityDrift:   0.5,
			MaxBacktestRegress: 0.5,
		},
	})
	if err != nil {
		feed.close()
		return nil, err
	}
	if err := srv.RemodelNow(ctx); err != nil {
		feed.close()
		return nil, fmt.Errorf("first model: %w", err)
	}
	return &serveEnv{city: city, win: win, srv: srv, feed: feed}, nil
}

func (e *serveEnv) close() {
	e.feed.close()
	e.srv.Close()
}

// feeder replays the city's live feed: raw records are pulled from the
// generator outside any timed region, then pushed through one long-lived
// streaming cleaner into the window, as cmd/served's ingest loop does.
type feeder struct {
	stream  *synth.LogStream
	cleaner *trace.Cleaner
	buf     []trace.Record
	pending []trace.Record // pulled from the stream, not yet handed out
	out     []trace.Record
}

func newFeeder(stream *synth.LogStream) *feeder {
	return &feeder{stream: stream, cleaner: trace.NewCleaner(), buf: make([]trace.Record, feedBatch)}
}

func (f *feeder) close() { f.stream.Close() }

// pull appends to dst the raw records that start before until. The feed
// is in time order at slot granularity.
func (f *feeder) pull(until time.Time, dst []trace.Record) ([]trace.Record, error) {
	for {
		for len(f.pending) > 0 {
			if !f.pending[0].Start.Before(until) {
				return dst, nil
			}
			dst = append(dst, f.pending[0])
			f.pending = f.pending[1:]
		}
		n, err := f.stream.NextBatch(f.buf)
		f.pending = f.buf[:n]
		if n > 0 {
			continue
		}
		if err == io.EOF {
			return dst, errFeedOut
		}
		if err != nil {
			return dst, fmt.Errorf("reading the feed: %w", err)
		}
	}
}

// feedTimes are the busy times of one push, when it is traced.
type feedTimes struct {
	clean, add time.Duration
	in, out    int
}

// push cleans raw and adds the survivors to the window in batches. With
// a non-nil ft it times the two layers separately.
func (f *feeder) push(win *window.Window, raw []trace.Record, ft *feedTimes) {
	for len(raw) > 0 {
		n := min(len(raw), feedBatch)
		var t0 time.Time
		if ft != nil {
			t0 = time.Now()
		}
		f.out = f.out[:0]
		for _, r := range raw[:n] {
			if c, ok := f.cleaner.Observe(r); ok {
				f.out = append(f.out, c)
			}
		}
		if ft != nil {
			t1 := time.Now()
			win.AddBatch(f.out)
			ft.clean += t1.Sub(t0)
			ft.add += time.Since(t1)
			ft.in += n
			ft.out += len(f.out)
		} else {
			win.AddBatch(f.out)
		}
		raw = raw[n:]
	}
}

// errFeedOut reports that the city's feed has no records left.
var errFeedOut = errors.New("the feed ran out")

// summaryView is the part of GET /summary the checks read.
type summaryView struct {
	Window struct {
		Towers      int `json:"towers"`
		Quarantined int `json:"quarantined"`
	} `json:"window"`
}

// modelsView is the part of GET /models the checks read.
type modelsView struct {
	CurrentSeq  uint64 `json:"current_seq"`
	Rejected    uint64 `json:"rejected"`
	Generations []struct {
		Seq    uint64 `json:"seq"`
		Towers int    `json:"towers"`
		Stats  struct {
			BacktestNRMSE *float64 `json:"backtest_nrmse"`
		} `json:"stats"`
	} `json:"generations"`
}

// models reads GET /models through the server's handler in-process.
func models(h http.Handler) (modelsView, error) {
	var v modelsView
	if err := getJSON(h, "/models", &v); err != nil {
		return v, err
	}
	if len(v.Generations) == 0 || v.Generations[0].Seq != v.CurrentSeq {
		return v, fmt.Errorf("GET /models: newest generation is not the current one")
	}
	return v, nil
}

// getJSON decodes the body of an in-process GET through the handler.
func getJSON(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}
