// Command perfbench is the repository benchmark for the SDL runtime. It runs
// closed-loop workloads against the dataspace, transaction engine, WAL,
// consensus manager and process runtime from a single process, verifies
// every workload's output, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run, --trace 1).
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload durable-upsert --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the host
// record and every metric by name with its unit, sample count and base.
// The process exits 1 when any verification fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
)

// metric is one reported value. n is the sample count behind a timing (0
// for counts and ratios); base names the denominator of a ratio.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	base  string
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int64
	failed    int64
	errs      []string // verification and operation failures, first few
	e2e       []metric // the end-to-end metrics BENCHMARK.json gates (untraced run)
	extra     []metric // further end-to-end figures, printed but not gated
	layers    []metric // per-layer metrics (traced run)
	info      string   // workload parameters for the record line
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// config holds the run parameters shared by every workload.
type config struct {
	seed    int64
	measure time.Duration // measured phase (split in two halves when tracing)
	warmup  time.Duration
	trace   bool
	workdir string // scratch space for WAL directories and span dumps
	small   bool   // tiny sizes and two set-ups, for the self-test
}

// workload is one named benchmark workload; BENCHMARK.json and README.md
// give the reasons for each.
type workload struct {
	name string
	run  func(cfg config) outcome
}

var workloads = []workload{
	{"tagged-upsert", runTagged},
	{"durable-upsert", runDurable},
	{"society", runSociety},
}

// setupAndVerifyAllowance is the time a workload may spend outside its
// warm-up and measured phases: set-up repetitions, verification (the
// durable workload's WAL read-back) and teardown.
const setupAndVerifyAllowance = 100 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for WAL files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	measure := time.Duration(*seconds) * time.Second
	cfg := config{
		seed:    *seed,
		measure: measure,
		warmup:  min(max(measure/10, 100*time.Millisecond), time.Second),
		trace:   *trace == 1,
		workdir: *workdir,
	}
	// A stuck run fails loudly. The limit is the planned warm-up and
	// measured time of every selected workload plus an allowance each for
	// set-up and verification, which keeps one workload of up to 60 s inside
	// the 180 s a run may take.
	limit := time.Duration(len(selected)) * (cfg.warmup + cfg.measure + setupAndVerifyAllowance)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded its planned %s, aborting\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	printHost(stdout, cfg)
	result := summary{Metrics: map[string]jsonMetric{}}
	correct := true
	for _, w := range selected {
		o := w.run(cfg)
		printOutcome(stdout, w.name, o, cfg.trace)
		if o.failed > 0 {
			correct = false
			for _, e := range o.errs {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, e)
			}
		}
		result.Attempted += o.attempted
		result.Failed += o.failed
		ms := o.e2e
		if cfg.trace {
			ms = o.layers
		}
		for _, m := range ms {
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			result.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	result.Correct = correct
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printHost prints the host record: numbers from different hosts, Go
// versions or shard counts must never be compared silently.
func printHost(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# host seed=%d nproc=%d gomaxprocs=%d go=%s os=%s/%s shards=%d workdir_fs=%s trace=%v\n",
		cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, dataspace.New().NumShards(), fsType(cfg.workdir), cfg.trace)
}

func printOutcome(w io.Writer, name string, o outcome, trace bool) {
	fmt.Fprintf(w, "# workload %s %s\n", name, o.info)
	ms := append(append([]metric(nil), o.e2e...), o.extra...)
	if trace {
		ms = o.layers
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %.6g %s", name, m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " n=%d", m.n)
		}
		if m.base != "" {
			fmt.Fprintf(w, " base=%s", m.base)
		}
		fmt.Fprintln(w)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%s failed_ratio %.6g ratio base=%d/%d\n", name, ratio, o.failed, o.attempted)
}
