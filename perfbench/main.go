// Command perfbench is the repository's benchmark. It runs one named
// workload of the PFDRL fleet through the public API of internal/core and
// internal/serve, checks every output, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records the benchmark's own spans around the public calls, replays
// each layer's public functions with the workload's shapes, and reports
// the per-layer metrics instead. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet_lstm --seed 1 --seconds 40 --trace 0
//
// README.md in this directory defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/benchmeta"
	"repro/internal/sched"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named measurement. Note carries its sample count or the
// basis it was computed on, for the printed table.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// report collects one run's metrics and the outcome of its checks.
type report struct {
	e2e    []metric // end-to-end metrics
	layers []metric // per-layer metrics (traced run)
	info   []metric // printed only: cross-checks and layer figures not measurable on every workload

	attempted, failed int
	failures          []string
	notes             []string
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records a failed check when ok is false, and returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
	conns    int // load-generator connections and scheduler pool size
	out      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "fleet_lstm", "workload to run: fleet_lstm, fleet_fed or serve_mixed")
	seed := fs.Int64("seed", 1, "workload seed: the corpus, model init and exploration derive from it")
	seconds := fs.Int("seconds", 40, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The scheduler pool and the load generator never get more workers
	// than the host has cores, so a parallel figure is never inflated by
	// time-slicing.
	conns := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	sched.SetDefaultSize(conns)
	opt := options{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, conns: conns, out: stdout}

	meta := benchmeta.Collect("perfbench", 1)
	hdr, _ := json.Marshal(map[string]any{
		"benchmeta": meta, "workload": w.name, "seed": opt.seed, "seconds": opt.seconds,
		"trace": *trace, "pool_workers": conns, "generator_conns": conns,
	})
	fmt.Fprintln(stdout, string(hdr))

	var rep *report
	if w.serve {
		rep, err = runServeWorkload(w, opt)
	} else {
		rep, err = runFleetWorkload(w, opt)
	}
	if err != nil {
		// A run that cannot complete prints no result line.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, w.name, opt, rep)
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable table and then the result line.
func printReport(out io.Writer, name string, opt options, r *report) {
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(out, "%s — %s (seed %d)\n", title, name, opt.seed)
		for _, m := range ms {
			fmt.Fprintf(out, "  %-30s %14.6g %-12s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	section("end-to-end", r.e2e)
	section("per-layer", r.layers)
	section("cross-checks and workload-specific figures", r.info)
	failedFrac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(out, "  %-30s %14.6g %-12s %d of %d operations\n", "failed_frac", failedFrac, "fraction", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}

	ms := r.e2e
	if opt.trace {
		ms = r.layers
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]val{}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN; an unmeasurable figure is a failed check.
			fmt.Fprintf(out, "CHECK FAILED: %s is not finite\n", m.Name)
			r.failures = append(r.failures, m.Name+" not finite")
			v = 0
		}
		vals[m.Name] = val{v, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   vals,
	})
	fmt.Fprintln(out, string(line))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

// memNow returns cumulative heap allocation and the live heap as of the
// last collection, in bytes.
func memNow() (allocs, live uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapPeak tracks the highest live heap seen at its sample points.
type heapPeak struct{ max uint64 }

func (h *heapPeak) sample() {
	if _, live := memNow(); live > h.max {
		h.max = live
	}
}

// sampleAfterGC collects first, so the sample is the live heap at this
// instant rather than at whichever collection last ran.
func (h *heapPeak) sampleAfterGC() {
	runtime.GC()
	h.sample()
}

func (h *heapPeak) mb() float64 { return float64(h.max) / 1e6 }

// usage brackets a measured interval: wall, CPU and heap allocation.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

func usageNow() usage {
	a, _ := memNow()
	return usage{wall: time.Now(), cpu: cpuTime(), allocs: a}
}

// since returns wall seconds, CPU seconds and allocated MB from u to now.
func (u usage) since() (wallS, cpuS, allocMB float64) {
	now := usageNow()
	return now.wall.Sub(u.wall).Seconds(), (now.cpu - u.cpu).Seconds(), float64(now.allocs-u.allocs) / 1e6
}

func fmtCount(n int, what string) string {
	return fmt.Sprintf("n=%d %s", n, what)
}
