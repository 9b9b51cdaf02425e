// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the repository's public layer functions, checks the
// outputs, and prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// tracing. With -trace 1 a separate traced run records a span around each
// call into a layer and reports the per-layer metrics instead; the spans
// are written to .bench_build/spans/ under the repository root. DESIGN.md
// explains the workloads and which layer metric moves which end-to-end
// metric. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload serve-cycle --seed 1 --seconds 24 --trace 0
//
// The process exits with code 1 when any correctness check fails and
// with code 2 on bad arguments or a set-up error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/synth"
)

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports. Each workload
// measures them on its own unit of work (DESIGN.md has the mapping).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_alloc_mb", "MB"},
	{"capacity_per_s", "1/s"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.parse_s", "s"},
	{"trace.records", "count"},
	{"trace.rows_skipped", "count"},
	{"trace.clean_s", "s"},
	{"trace.clean.kept_ratio", "ratio"},
	{"pipeline.vectorize_s", "s"},
	{"pipeline.validate_s", "s"},
	{"nmf.factorize_s", "s"},
	{"nmf.iterations", "count"},
	{"cluster.hierarchical_s", "s"},
	{"cluster.dbi_tuner_s", "s"},
	{"cluster.centroids_s", "s"},
	{"poi.count_s", "s"},
	{"label.clusters_s", "s"},
	{"freqdomain.extract_s", "s"},
	{"freqdomain.representatives_s", "s"},
	{"timedomain.summarize_s", "s"},
	{"core.residual_s", "s"},
	{"core.analyze_serial_s", "s"},
	{"window.dataset_s", "s"},
	{"anomaly.detect_all_s", "s"},
	{"forecast.backtest_s", "s"},
	{"forecast.fit_predict_s", "s"},
	{"forecast.failures", "count"},
	{"cluster.validity_s", "s"},
	{"serve.remodel_residual_s", "s"},
	{"serve.http.tower_s", "s"},
	{"serve.http.tower_override_s", "s"},
	{"serve.http.summary_s", "s"},
	{"serve.http.towers_s", "s"},
	{"serve.http.tower_bytes", "bytes"},
	{"serve.http.tower_override_bytes", "bytes"},
	{"serve.http.summary_bytes", "bytes"},
	{"serve.http.towers_bytes", "bytes"},
	{"window.add_batch_s", "s"},
	{"window.quarantined", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"bench.tracing_overhead_s", "s"},
	{"bench.stage_sum_share", "ratio"},
}

// runParams are the command-line arguments shared by every workload.
type runParams struct {
	seed    int64
	seconds float64
	traced  bool
	root    string // repository root: spans go under <root>/.bench_build
}

// outcome is what one workload run hands back to main: the metric values
// and the correctness accounting.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// notes are human-readable lines printed before the result line:
	// the workload's own figures under the names DESIGN.md uses.
	notes []string
}

// checkf records one correctness check: a failed check is counted and
// reported on standard error.
func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		warnf("check failed: "+format, args...)
	}
}

// warnf reports a problem on standard error.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(context.Context, runParams) (*outcome, error)
}

var workloads = []workload{
	{"batch-trace", runBatch},
	{"serve-cycle", runCycle},
	{"serve-query", runQuery},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: batch-trace, serve-cycle, serve-query, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 24, "how long the measured part of the run lasts")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root    = flag.String("root", ".", "repository root; spans are written under <root>/.bench_build/spans")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	p := runParams{seed: *seed, seconds: *seconds, traced: *traced == 1, root: *root}
	printMachine()
	exit := 0
	for _, w := range selected {
		code := runOne(w, p)
		exit = max(exit, code)
	}
	os.Exit(exit)
}

// runOne runs a workload and prints its notes and result line. It returns
// the process exit code the run calls for.
func runOne(w workload, p runParams) int {
	out, err := w.run(context.Background(), p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	defs := endToEnd
	if p.traced {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !p.traced {
			out.checkf(false, "%s: metric %s was not measured", w.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.checkf(false, "%s: metric %s is %v", w.name, d.name, v)
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for name := range out.metrics {
		if !declared(defs, name) {
			out.checkf(false, "%s: metric %s is not declared", w.name, name)
		}
	}
	for _, n := range out.notes {
		fmt.Printf("# %s: %s\n", w.name, n)
	}
	attempted := max(out.attempted, 1)
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// printMachine prints the machine record every speed-up must cite.
func printMachine() {
	rec, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"kernels":    linalg.KernelDescription(),
	})
	fmt.Printf("# machine %s\n", rec)
}

// deadline is the end of a run's measured part.
func deadline(p runParams) time.Time {
	return time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
}

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 3

// timedSetup builds a workload's inputs setupRepeats times and returns
// the last build with the median build time in seconds. Each build
// starts from a collected heap with the previous one released.
func timedSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		zero  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(last)
			last = zero
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the median of xs (the mean of the middle two for an
// even count), or NaN for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// generateSeries builds the city's ground-truth traffic with one
// goroutine per core. Series are deterministic per tower, so the result
// equals City.GenerateSeries.
func generateSeries(city *synth.City) ([]synth.TowerSeries, error) {
	out := make([]synth.TowerSeries, len(city.Towers))
	errs := make([]error, len(city.Towers))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(out); i = int(next.Add(1) - 1) {
				out[i], errs[i] = city.GenerateTowerSeries(i)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("generating traffic: %w", err)
	}
	return out, nil
}

// spanDir returns the directory traced runs write their spans to.
func spanDir(p runParams) string {
	return filepath.Join(p.root, ".bench_build", "spans")
}
