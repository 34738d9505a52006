package hostbench

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"cellpilot/internal/core"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
	"cellpilot/internal/workload"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMAD(t *testing.T) {
	// Median 3, deviations {2,1,0,1,2} -> MAD 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := MAD(nil); got != 0 {
		t.Errorf("MAD(nil) = %v, want 0", got)
	}
}

// syntheticFile builds an artifact with the given allocs/event per suite
// iteration; the other metrics are held constant.
func syntheticFile(name string, allocs []float64, shares map[string]float64) File {
	sr := SuiteResult{Name: name, SubsysNs: map[string]int64{}, SubsysShare: shares}
	for _, a := range allocs {
		sr.Iters = append(sr.Iters, Iter{
			WallNs: 1e9, Events: 1000, EventsPerSec: 1000,
			AllocsPerEvent: a, BytesPerEvent: 100, VirtualUs: 42,
		})
	}
	return File{Schema: Schema, Iterations: len(allocs), Env: CaptureEnv(), Suites: []SuiteResult{sr}}
}

func TestGuardIdenticalFilesPass(t *testing.T) {
	f := syntheticFile("pp", []float64{10, 10.2, 9.8}, map[string]float64{"kernel": 0.6, "mpi": 0.4})
	rep := Guard(f, f, GuardOptions{})
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("identical files regressed: %+v", regs)
	}
	if len(rep.Deltas) == 0 {
		t.Fatal("no deltas computed")
	}
}

func TestGuardFlagsAllocGrowthWithBlame(t *testing.T) {
	base := syntheticFile("pp", []float64{10, 10.1, 9.9}, map[string]float64{"kernel": 0.5, "mpi": 0.5})
	now := syntheticFile("pp", []float64{15, 15.2, 14.9}, map[string]float64{"kernel": 0.8, "mpi": 0.2})
	rep := Guard(base, now, GuardOptions{})
	var hit *Delta
	for i, d := range rep.Deltas {
		if d.Metric == MetricAllocsPerEvent && d.Regressed {
			hit = &rep.Deltas[i]
		}
	}
	if hit == nil {
		t.Fatalf("50%% allocs/event growth not flagged: %+v", rep.Deltas)
	}
	if hit.Blame != "kernel" {
		t.Errorf("blame = %q, want kernel (its share grew most)", hit.Blame)
	}
	out := FormatGuard(rep)
	if !strings.Contains(out, "REGRESSED (kernel)") {
		t.Errorf("FormatGuard missing blame verdict:\n%s", out)
	}
}

func TestGuardDirectionAware(t *testing.T) {
	base := syntheticFile("pp", []float64{10, 10, 10}, nil)
	// Improvement: allocs/event halves. Must not trip.
	now := syntheticFile("pp", []float64{5, 5, 5}, nil)
	if regs := Guard(base, now, GuardOptions{}).Regressions(); len(regs) != 0 {
		t.Errorf("improvement tripped guard: %+v", regs)
	}
	// events/sec dropping far below band must trip — but only fail the
	// gate when wall-coupled metrics are opted in (GateWall); by default
	// it is marked regressed yet advisory.
	slow := syntheticFile("pp", []float64{10, 10, 10}, nil)
	for i := range slow.Suites[0].Iters {
		slow.Suites[0].Iters[i].EventsPerSec = 100 // was 1000
	}
	rep := Guard(base, slow, GuardOptions{GateWall: true})
	found := false
	for _, d := range rep.Regressions() {
		if d.Metric == MetricEventsPerSec {
			found = true
		}
	}
	if !found {
		t.Errorf("10x events/sec drop not flagged with GateWall: %+v", rep.Deltas)
	}
	advisory := Guard(base, slow, GuardOptions{})
	if len(advisory.Regressions()) != 0 {
		t.Errorf("advisory wall metric failed the gate: %+v", advisory.Regressions())
	}
	marked := false
	for _, d := range advisory.Deltas {
		if d.Metric == MetricEventsPerSec && d.Regressed && d.Advisory {
			marked = true
		}
	}
	if !marked {
		t.Errorf("events/sec drop not even marked advisory-regressed: %+v", advisory.Deltas)
	}
}

func TestGuardFloorScale(t *testing.T) {
	base := syntheticFile("pp", []float64{10, 10, 10}, nil)
	now := syntheticFile("pp", []float64{11.5, 11.5, 11.5}, nil) // +15%
	// Default floor 10%: trips.
	if len(Guard(base, now, GuardOptions{}).Regressions()) == 0 {
		t.Error("+15%% allocs/event not flagged at default floor")
	}
	// Doubled floors (20%): passes.
	if regs := Guard(base, now, GuardOptions{FloorScale: 2}).Regressions(); len(regs) != 0 {
		t.Errorf("+15%% flagged with FloorScale 2: %+v", regs)
	}
}

func TestGuardMADWidensBand(t *testing.T) {
	// Noisy baseline: allocs median 10, MAD 2 -> band 5*2/10 = 100%.
	base := syntheticFile("pp", []float64{8, 10, 12, 7, 13}, nil)
	now := syntheticFile("pp", []float64{15, 15, 15}, nil) // +50%, inside noise
	if regs := Guard(base, now, GuardOptions{}).Regressions(); len(regs) != 0 {
		t.Errorf("movement within baseline noise flagged: %+v", regs)
	}
}

func TestGuardRangeWidensBand(t *testing.T) {
	// Wall time with one straggler iteration: median 1000, MAD 0 (two of
	// three agree), but the observed range spans 9x. A heavy-tailed spread
	// like this is exactly what MAD-of-3 misses; the range term must keep
	// a same-magnitude current value inside the band.
	base := syntheticFile("pp", []float64{10, 10, 10}, nil)
	for i, w := range []int64{1000, 1000, 9000} {
		base.Suites[0].Iters[i].WallNs = w
	}
	now := syntheticFile("pp", []float64{10, 10, 10}, nil)
	for i := range now.Suites[0].Iters {
		now.Suites[0].Iters[i].WallNs = 5000 // 5x the baseline median
	}
	for _, d := range Guard(base, now, GuardOptions{GateWall: true}).Regressions() {
		if d.Metric == MetricWallNs {
			t.Errorf("wall time within the baseline's own range flagged: %+v", d)
		}
	}
}

func TestGuardMissingSuites(t *testing.T) {
	base := syntheticFile("old", []float64{10}, nil)
	now := syntheticFile("new", []float64{10}, nil)
	rep := Guard(base, now, GuardOptions{})
	if len(rep.Missing) != 2 {
		t.Fatalf("Missing = %v, want both directions reported", rep.Missing)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := syntheticFile("pp", []float64{1, 2}, map[string]float64{"kernel": 1})
	f.Suites[0].SubsysNs = map[string]int64{"kernel": 12345}
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Suites) != 1 || got.Suites[0].Name != "pp" {
		t.Fatalf("round trip mangled: %+v", got)
	}
	if got.Suites[0].SubsysNs["kernel"] != 12345 {
		t.Errorf("SubsysNs lost: %+v", got.Suites[0].SubsysNs)
	}
	if len(got.Suites[0].Iters) != 2 {
		t.Errorf("iters lost: %+v", got.Suites[0].Iters)
	}
}

func TestReadFileRejectsSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := syntheticFile("pp", []float64{1}, nil)
	f.Schema = Schema + 1
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}

// tinySuite is a fast single-workload suite for end-to-end tests.
func tinySuite() []Suite {
	return []Suite{{
		Name: "pp-tiny",
		Run: func(h *hostprof.Profiler) (sim.Time, error) {
			var st core.Stats
			_, err := workload.PingPong(workload.PingPongConfig{
				Type: 1, Bytes: 256, Method: workload.MethodCellPilot,
				Reps: 10, Stats: &st,
				Observe: func(a *core.App) error { return a.SetHostProf(h) },
			})
			return st.VirtualTime, err
		},
	}}
}

func TestRunProducesArtifact(t *testing.T) {
	f, err := Run(tinySuite(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema || f.Iterations != 2 || len(f.Suites) != 1 {
		t.Fatalf("artifact shape wrong: %+v", f)
	}
	sr := f.Suites[0]
	if len(sr.Iters) != 2 {
		t.Fatalf("want 2 iters, got %d", len(sr.Iters))
	}
	for i, it := range sr.Iters {
		if it.Events == 0 || it.EventsPerSec <= 0 || it.WallNs <= 0 {
			t.Errorf("iter %d has empty host metrics: %+v", i, it)
		}
		if it.VirtualUs != sr.Iters[0].VirtualUs {
			t.Errorf("iter %d virtual time %v != iter 0's %v", i, it.VirtualUs, sr.Iters[0].VirtualUs)
		}
	}
	var total float64
	for _, share := range sr.SubsysShare {
		total += share
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("subsystem shares sum to %v, want ~1 (%+v)", total, sr.SubsysShare)
	}
}

// TestGuardCatchesInjectedAllocs is the acceptance check: a forced
// per-event allocation (the BurnAllocBytes knob, standing in for a real
// host-side regression in the dispatch loop) must trip the guard on
// allocs/event and blame the kernel subsystem.
func TestGuardCatchesInjectedAllocs(t *testing.T) {
	suites := tinySuite()
	base, err := Run(suites, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	BurnAllocBytes = 4096
	defer func() { BurnAllocBytes = 0 }()
	slow, err := Run(suites, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The injection must not perturb the virtual result.
	if b, s := base.Suites[0].Iters[0].VirtualUs, slow.Suites[0].Iters[0].VirtualUs; b != s {
		t.Fatalf("burn changed virtual time: %v -> %v", b, s)
	}
	rep := Guard(base, slow, GuardOptions{})
	var hit *Delta
	for i, d := range rep.Deltas {
		if d.Metric == MetricAllocsPerEvent && d.Regressed {
			hit = &rep.Deltas[i]
		}
	}
	if hit == nil {
		t.Fatalf("injected per-event allocation not flagged:\n%s", FormatGuard(rep))
	}
	if hit.Blame == "" {
		t.Error("regression has no subsystem blame")
	}
}

func TestFormatTrend(t *testing.T) {
	base := syntheticFile("pp", []float64{10, 10}, map[string]float64{"kernel": 0.5, "mpi": 0.5})
	now := syntheticFile("pp", []float64{12, 12}, map[string]float64{"kernel": 0.7, "mpi": 0.3})
	out := FormatTrend(base, now)
	for _, want := range []string{"host-cost trend", "pp", "allocs_per_event", "+20.0%", "kernel +20.0pp"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSeqFillsSpeedupColumn: a suite with a sequential reference arm
// gets the shard count and speedup columns, and a sequential arm whose
// virtual result diverges fails the run (the seq/par determinism check).
func TestRunSeqFillsSpeedupColumn(t *testing.T) {
	kilo := func(workers int) func(h *hostprof.Profiler) (sim.Time, error) {
		return func(h *hostprof.Profiler) (sim.Time, error) {
			res, err := workload.Kiloscale(workload.KiloscaleConfig{
				Nodes: 12, Reps: 2, Workers: workers, Seed: 5, Host: h,
			})
			return res.VirtualTime, err
		}
	}
	f, err := Run([]Suite{{Name: "kilo-tiny", Run: kilo(2), RunSeq: kilo(1)}}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := f.Suites[0]
	if sr.Shards != 4 {
		t.Fatalf("Shards = %d, want 4 replicas", sr.Shards)
	}
	if sr.ParallelSpeedup <= 0 {
		t.Fatalf("ParallelSpeedup not recorded: %+v", sr)
	}
	// A sequential arm that computes something else must fail loudly.
	bad := []Suite{{
		Name: "bad",
		Run:  kilo(2),
		RunSeq: func(h *hostprof.Profiler) (sim.Time, error) {
			v, err := kilo(1)(h)
			return v + 1, err
		},
	}}
	if _, err := Run(bad, 1, nil); err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Fatalf("diverging sequential arm not rejected: %v", err)
	}
}
