// Command perfbench is the repository's benchmark. One run drives one
// workload through the public functions of each layer, checks every
// answer against the independent checkers in check.go, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload road-query --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced chunks of the measured pass with chunks whose layer calls
// are recorded as spans, writes the spans as a Chrome trace-event file
// and prints the per-layer metrics.
// See README.md for the workloads, metrics and noise handling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Metric catalogue, in print order. Every workload reports every
// end-to-end metric; README.md gives each one's meaning per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"stretch_mean", "ratio"},
	{"build_s", "s"},
	{"spanner_s", "s"},
	{"spanner_edges", "count"},
	{"oracle_bytes", "bytes"},
	{"warm_start_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer metrics; a layer a workload's path does not cross reads 0.
var perLayer = []struct{ name, unit string }{
	{"graph.read_s", "s"},
	{"core.cluster_s", "s"},
	{"core.clusters", "count"},
	{"spanner.unweighted_s", "s"},
	{"spanner.unweighted_edges", "count"},
	{"spanner.work", "count"},
	{"spanner.depth", "count"},
	{"spanner.edge_stretch_max", "ratio"},
	{"wscale.decompose_s", "s"},
	{"wscale.instances", "count"},
	{"hopset.build_s", "s"},
	{"hopset.build_work", "count"},
	{"hopset.build_depth", "count"},
	{"hopset.edges", "count"},
	{"hopset.warm_s", "s"},
	{"hopset.query_ms", "ms"},
	{"hopset.levels_per_query", "count"},
	{"hopset.work_per_query", "count"},
	{"hopset.fallback_connected", "count"},
	{"hopset.fallback_disconnected", "count"},
	{"hopset.rounded_cache_len", "count"},
	{"spanhop.alloc_bytes_per_query", "bytes"},
	{"sssp.exact_ms", "ms"},
	{"sssp.exact_work", "count"},
	{"oracle_over_exact", "ratio"},
	{"flat.save_s", "s"},
	{"dynamic.query_clean_ms", "ms"},
	{"dynamic.query_improving_ms", "ms"},
	{"dynamic.query_degrading_ms", "ms"},
	{"dynamic.rebuild_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.batch_size_mean", "count"},
	{"server.snapshot_writes", "count"},
	{"obs.audit_checked", "count"},
	{"obs.audit_cpu_s", "s"},
	{"obs.traced_audit_cpu_ms", "ms"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference is reported as trace_overhead.<name>.
var overheadOf = []string{"query_p50_ms", "query_p95_ms", "build_s", "spanner_s",
	"warm_start_ms", "update_p50_ms", "ops_per_s"}

func init() {
	for _, m := range overheadOf {
		unit := ""
		for _, e := range endToEnd {
			if e.name == m {
				unit = e.unit
			}
		}
		perLayer = append(perLayer, struct{ name, unit string }{"trace_overhead." + m, unit})
	}
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

// report is what a workload hands back: metric values by name, the
// operation counts, and the correctness verdict with its reasons.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a correctness problem; the run's correct flag becomes
// false. The first few are echoed to stderr.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(cfg config, rep *report) error{
	"road-query":   runRoad,
	"social-build": runSocial,
	"serve-mixed":  runServe,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "road-query, social-build or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured pass")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for snapshots, input files and traces")
	flag.Parse()
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if cfg.workload != "serve-mixed" {
		// One client, one core: the library workloads run sequential
		// execution contexts, and a second processor would only add the
		// collector's cross-core interference to their timings.
		runtime.GOMAXPROCS(1)
	}
	if !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload road-query|social-build|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.workdir = filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := newReport()
	err := run(cfg, rep)
	os.RemoveAll(cfg.workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rss, err := peakRSSMB()
	if err == nil {
		rep.metrics["rss_peak_mb"] = rss
		err = printResult(cfg, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(cfg config, rep *report) error {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	out := map[string]metricValue{}
	for _, m := range list {
		v, ok := rep.metrics[m.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s measured no %s", cfg.workload, m.name)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if rep.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	if n := len(rep.problems); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d check(s) failed\n", n)
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB is the process's peak resident set in MiB, from
// getrusage(2); Linux reports ru_maxrss in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// ---------------------------------------------------------------------
// Small statistics helpers.

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples are one half of a measured pass, by name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// halves are a pass's samples split by passRec: [0] untraced, [1]
// traced. An untraced run fills only [0].
func newHalves() [2]samples { return [2]samples{{}, {}} }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func secs(d time.Duration) float64 { return d.Seconds() }

// settle collects garbage left by the previous step so that it is not
// collected inside the next measured interval.
func settle() { runtime.GC() }

// setupRepeats is how many times each workload sets up per run;
// setup_s is the median.
const setupRepeats = 5

// networkSeed fixes the graph and oracle of the workloads that model
// a service over one network (road-query, serve-mixed); --seed draws
// their query and update streams.
const networkSeed = 20150625

// repSeed is the construction seed of repetition i: repetitions of a
// build use different seeds, so that a run's median is over the spread
// of the randomized constructions rather than one draw.
func repSeed(seed uint64, i int) uint64 {
	return newRNG(seed, fmt.Sprintf("construction-%d", i)).next()
}
