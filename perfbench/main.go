// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points (the cellpilot facade, sim, cluster,
// scenario, hostprof and the sink constructors), times the calls into
// each layer from its own files, checks every output it can, and prints
// one JSON result line last.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh compare <base.out> <new.out>
//
// Workloads (all closed loops: every initiator waits for its echo):
//
//	pingpong-grid   paper Table II, CellPilot method, types 1-5 x {1 B, 1600 B}
//	scenario-fleet  the scenarios/*.yaml library in full mode, checked and golden-compared
//	fleet           1000 simulated nodes as 334 3-node replicas on sim.NewSharded
//
// With --trace 0 the run repeats whole passes of the workload for
// --seconds and reports medians of the end-to-end metrics. With --trace 1
// it makes a separate instrumented run and reports the per-layer metrics;
// a layer the workload gives the benchmark no view of reads -1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports for every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
}

// notObserved is the value of a per-layer metric the workload gives the
// benchmark no view of.
const notObserved = -1

// report collects one run's metrics and output checks.
type report struct {
	values map[string]float64
	units  map[string]string
	notes  []string
	checks int
	failed int
}

func newReport(defs []metricDef, fill float64) *report {
	r := &report{values: map[string]float64{}, units: map[string]string{}}
	for _, d := range defs {
		r.values[d.name] = fill
		r.units[d.name] = d.unit
	}
	return r
}

// set records a metric; the name must be declared.
func (r *report) set(name string, v float64) {
	if _, ok := r.units[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
}

// check counts one output check and whether it passed.
func (r *report) check(ok bool, what string) {
	r.checks++
	if !ok {
		r.failed++
		r.note("CHECK FAILED: " + what)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb adds a pass's check tallies.
func (r *report) absorb(checks, failed int) {
	r.checks += checks
	r.failed += failed
	if failed > 0 {
		r.note("CHECK FAILED: %d of %d output checks in one pass", failed, checks)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable table, the environment line and, last,
// the JSON result line.
func (r *report) print(w io.Writer, workload string) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: %s\n", workload, n)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	res := jsonResult{Correct: r.failed == 0, Attempted: r.checks, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		v := r.values[n]
		if v == notObserved {
			fmt.Fprintf(w, "%-15s %-34s n/a (not observable on this workload)\n", workload, n)
		} else {
			fmt.Fprintf(w, "%-15s %-34s %.6g %s\n", workload, n, v, r.units[n])
		}
		res.Metrics[n] = jsonMetric{Value: v, Unit: r.units[n]}
	}
	fmt.Fprintf(w, "%-15s %-34s %.6g (%d of %d output checks failed)\n", workload, "fail_frac",
		float64(r.failed)/float64(max(r.checks, 1)), r.failed, r.checks)
	env, err := json.Marshal(currentEnv())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s %s\n", envTag, env)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// workload is one benchmark workload: a timed pass and a traced run.
type workload struct {
	name string
	// pass runs the workload once and reports the time spent in setup
	// and in the run phase; the caller times the whole pass.
	pass func(seed int64) (passTimes, error)
	// warm, when non-nil, replaces the full pass as the untimed warm-up.
	warm func(seed int64) (passTimes, error)
	// traced fills the per-layer metrics; budget bounds its loops.
	traced func(seed int64, budget time.Duration, r *report) error
	// setupNote explains what setup_s covers on this workload.
	setupNote string
}

// passTimes is what one pass measured from inside.
type passTimes struct {
	setup, run     time.Duration
	checks, failed int
}

var workloads = []workload{gridWorkload, scenarioWorkload, fleetWorkload}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: pingpong-grid, scenario-fleet or fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	secs := fs.Int("seconds", 10, "how long the timed run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	budget := time.Duration(*secs) * time.Second
	var (
		r   *report
		err error
	)
	if *trace == 1 {
		r = newReport(layerMetrics, notObserved)
		err = w.traced(*seed, budget, r)
	} else {
		r, err = timed(*w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := r.print(stdout, w.name); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// minPasses is the fewest timed passes a run makes, however long they
// take.
const minPasses = 3

// timed runs one untimed warm-up, then whole passes until budget is spent,
// and reports the medians of the end-to-end metrics. Every pass starts
// from a collected heap; the collection and the allocation reads fall
// outside the timed pass.
func timed(w workload, seed int64, budget time.Duration) (*report, error) {
	r := newReport(endToEnd, 0)
	warmUp := w.pass
	if w.warm != nil {
		warmUp = w.warm
	}
	warm, err := warmUp(seed)
	if err != nil {
		return nil, err
	}
	r.absorb(warm.checks, warm.failed)

	var wall, setup, run, alloc []float64
	start := time.Now()
	for len(wall) < minPasses || time.Since(start) < budget {
		runtime.GC()
		a0 := allocated()
		t0 := time.Now()
		p, err := w.pass(seed)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		a1 := allocated()
		r.absorb(p.checks, p.failed)
		wall = append(wall, d.Seconds())
		setup = append(setup, p.setup.Seconds())
		run = append(run, p.run.Seconds())
		alloc = append(alloc, float64(a1-a0)/1e6)
	}
	r.set("wall_s", median(wall))
	r.set("setup_s", median(setup))
	r.set("run_s", median(run))
	r.set("alloc_mb", median(alloc))
	r.note("medians of %d timed passes after one warm-up; spread (IQR/median) wall_s %.3f, setup_s %.3f, run_s %.3f",
		len(wall), iqrFrac(wall), iqrFrac(setup), iqrFrac(run))
	r.note("setup_s covers %s", w.setupNote)
	return r, nil
}
