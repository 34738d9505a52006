// Package hostbench is the host-cost benchmark suite and its regression
// ledger: it runs a fixed set of simulator workloads with the wall-clock
// profiler (internal/hostprof) attached, measures what each run costs the
// host (wall time, events/sec, allocations and bytes per event, GC
// pauses) alongside its virtual result, and serializes everything into a
// schema-versioned JSON artifact (results/BENCH_hostbench.json). The
// noise-aware guard in guard.go compares two artifacts and names the
// subsystem that regressed.
package hostbench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cellpilot/internal/core"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
	"cellpilot/internal/workload"
)

// Schema is the artifact's schema version. Bump on any incompatible
// change to File; the guard refuses to compare mismatched schemas.
// Schema 2 added the sharded-run columns (SuiteResult.Shards and
// SuiteResult.ParallelSpeedup) and the kiloscale suite.
const Schema = 2

// Env captures the host environment a benchmark ran on — the context a
// reader (or the guard's tolerance floors) needs to judge comparability.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CaptureEnv reads the current host environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Iter is one iteration's host-side measurement of one suite.
type Iter struct {
	// WallNs is the iteration's wall-clock duration.
	WallNs int64 `json:"wall_ns"`
	// Events is the number of kernel events the run dispatched;
	// EventsPerSec is Events over wall time — the kernel's headline
	// throughput number.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent and BytesPerEvent are heap allocation counts/bytes
	// per dispatched event (runtime.MemStats deltas).
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// GCPauseNs is the stop-the-world pause time the iteration incurred.
	GCPauseNs int64 `json:"gc_pause_ns"`
	// MaxHeapDepth is the event-heap watermark.
	MaxHeapDepth int `json:"max_heap_depth"`
	// VirtualUs is the run's virtual result (final clock in microseconds)
	// — identical across iterations and machines by the determinism
	// contract, so it doubles as a correctness cross-check in the ledger.
	VirtualUs float64 `json:"virtual_us"`
}

// SuiteResult aggregates one suite's iterations plus its subsystem
// host-time attribution (shares of sampled wall time, summed over all
// iterations).
type SuiteResult struct {
	Name  string `json:"name"`
	Iters []Iter `json:"iters"`
	// SubsysNs is exclusive sampled host time per subsystem; SubsysShare
	// the same normalized to the total sampled time.
	SubsysNs    map[string]int64   `json:"subsys_ns"`
	SubsysShare map[string]float64 `json:"subsys_share"`
	// Shards is the per-shard profiler count the suite's runs merged
	// (hostprof.Snapshot.Shards); 0 for single-kernel suites.
	Shards int `json:"shards,omitempty"`
	// ParallelSpeedup is the suite's sequential-arm wall time over the
	// median parallel-arm wall time, recorded only for suites with a
	// sequential reference (Suite.RunSeq). On a single-core host it
	// honestly reads ~1.0 — the ledger records what the machine did, not
	// what a bigger one would.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
}

// File is the BENCH_hostbench.json artifact.
type File struct {
	Schema     int `json:"schema"`
	Iterations int `json:"iterations"`
	// Quick records whether the suites ran in their CI-shrunk shape; the
	// guard re-runs the same shape so medians compare like against like.
	Quick  bool          `json:"quick"`
	Env    Env           `json:"env"`
	Suites []SuiteResult `json:"suites"`
}

// Suite is one benchmark workload: run the scenario with the given
// profiler attached and return its final virtual time.
type Suite struct {
	Name string
	Run  func(h *hostprof.Profiler) (sim.Time, error)
	// RunSeq, when non-nil, is the same workload pinned to one host
	// worker — the sequential reference arm. Run times it once per suite
	// to fill the ParallelSpeedup column, and its virtual result must
	// equal the parallel arm's bit for bit (the seq-vs-par determinism
	// contract, enforced at measurement time).
	RunSeq func(h *hostprof.Profiler) (sim.Time, error)
}

// Suites returns the fixed benchmark suite in ledger order: PingPong over
// all five channel types, the transfer-engine size sweep, a seeded chaos
// run, and a 64-node IMB Exchange stressing kernel scaling well past the
// paper's 8-node testbed. quick shrinks the workloads for CI.
func Suites(quick bool) []Suite {
	ppReps, sweepReps, chaosReps, imbReps := 200, 5, 10, 40
	if quick {
		ppReps, sweepReps, chaosReps, imbReps = 50, 2, 5, 10
	}
	var suites []Suite
	for t := 1; t <= 5; t++ {
		t := t
		suites = append(suites, Suite{
			Name: fmt.Sprintf("pingpong-t%d", t),
			Run: func(h *hostprof.Profiler) (sim.Time, error) {
				var st core.Stats
				_, err := workload.PingPong(workload.PingPongConfig{
					Type: t, Bytes: 1600, Method: workload.MethodCellPilot,
					Reps: ppReps, Stats: &st,
					Observe: func(a *core.App) error { return a.SetHostProf(h) },
				})
				return st.VirtualTime, err
			},
		})
	}
	suites = append(suites, Suite{
		Name: "sizesweep",
		Run: func(h *hostprof.Profiler) (sim.Time, error) {
			pts, err := workload.SizeSweep(workload.SizeSweepConfig{
				Reps: sweepReps, Host: h,
				Sizes: []int{64, 4096, 65536},
			})
			if err != nil {
				return 0, err
			}
			// The sweep spans many independent apps; fold the virtual
			// result into a stable scalar (sum of p50 latencies).
			var virt sim.Time
			for _, p := range pts {
				virt += p.OneWayP50
			}
			return virt, nil
		},
	})
	suites = append(suites, Suite{
		Name: "chaos",
		Run: func(h *hostprof.Profiler) (sim.Time, error) {
			res, err := workload.Chaos(workload.ChaosConfig{
				Seed: 42, Reps: chaosReps, LossProb: 0.05,
				KillSPE: true, MailboxDrops: 2,
				Observe: func(a *core.App) error { return a.SetHostProf(h) },
			})
			return res.VirtualTime, err
		},
	})
	suites = append(suites, Suite{
		Name: "imb64",
		Run: func(h *hostprof.Profiler) (sim.Time, error) {
			res, err := workload.IMB(workload.IMBConfig{
				Pattern: workload.IMBExchange, Ranks: 64, Nodes: 64,
				Bytes: 1024, Reps: imbReps, Host: h,
			})
			return res.AvgTime, err
		},
	})
	kiloNodes, kiloReps := 300, 10
	if quick {
		kiloNodes, kiloReps = 60, 3
	}
	kiloRun := func(workers int) func(h *hostprof.Profiler) (sim.Time, error) {
		return func(h *hostprof.Profiler) (sim.Time, error) {
			res, err := workload.Kiloscale(workload.KiloscaleConfig{
				Nodes: kiloNodes, Reps: kiloReps, Workers: workers, Seed: 9, Host: h,
			})
			return res.VirtualTime, err
		}
	}
	suites = append(suites, Suite{
		Name:   "kiloscale",
		Run:    kiloRun(0), // one worker per host core
		RunSeq: kiloRun(1),
	})
	return suites
}

// Run executes every suite for iters iterations and assembles the
// artifact. Each iteration gets a fresh profiler, so per-iteration event
// counts are exact; subsystem attribution is summed across iterations.
// logf (nil = silent) receives one progress line per suite.
func Run(suites []Suite, iters int, logf func(format string, args ...any)) (File, error) {
	if iters <= 0 {
		iters = 3
	}
	f := File{Schema: Schema, Iterations: iters, Env: CaptureEnv()}
	for _, s := range suites {
		sr := SuiteResult{Name: s.Name, SubsysNs: map[string]int64{}, SubsysShare: map[string]float64{}}
		var totalNs int64
		for i := 0; i < iters; i++ {
			it, snap, err := measure(s)
			if err != nil {
				return File{}, fmt.Errorf("hostbench: suite %s iteration %d: %w", s.Name, i, err)
			}
			if i > 0 && it.VirtualUs != sr.Iters[0].VirtualUs {
				return File{}, fmt.Errorf("hostbench: suite %s iteration %d: virtual time %v differs from iteration 0's %v — determinism broken",
					s.Name, i, it.VirtualUs, sr.Iters[0].VirtualUs)
			}
			sr.Iters = append(sr.Iters, it)
			if i == 0 {
				sr.Shards = snap.Shards
			}
			for _, sh := range snap.Subsystems {
				sr.SubsysNs[sh.Name] += sh.SampledNs
			}
			totalNs += snap.SampledNs
		}
		if totalNs > 0 {
			for name, ns := range sr.SubsysNs {
				sr.SubsysShare[name] = float64(ns) / float64(totalNs)
			}
		}
		if s.RunSeq != nil {
			// One timed sequential-reference run fills the speedup column;
			// its virtual result doubles as the seq-vs-par determinism
			// check — the parallel iterations above must have produced the
			// exact same virtual clock.
			hseq := hostprof.New(0)
			hseq.BurnAllocBytes = BurnAllocBytes
			t0 := time.Now()
			virt, err := s.RunSeq(hseq)
			seqWall := time.Since(t0)
			if err != nil {
				return File{}, fmt.Errorf("hostbench: suite %s sequential arm: %w", s.Name, err)
			}
			if virt.Micros() != sr.Iters[0].VirtualUs {
				return File{}, fmt.Errorf("hostbench: suite %s: sequential arm's virtual time %v differs from parallel's %v — seq/par determinism broken",
					s.Name, virt.Micros(), sr.Iters[0].VirtualUs)
			}
			if med := Median(metricValues(sr, MetricWallNs)); med > 0 {
				sr.ParallelSpeedup = float64(seqWall.Nanoseconds()) / med
			}
		}
		if logf != nil {
			extra := ""
			if sr.ParallelSpeedup > 0 {
				extra = fmt.Sprintf(", %dx shards %.2fx speedup", sr.Shards, sr.ParallelSpeedup)
			}
			logf("hostbench: %-12s %d iters, median %.0f events/sec, %.1f allocs/event%s",
				s.Name, iters, Median(metricValues(sr, MetricEventsPerSec)), Median(metricValues(sr, MetricAllocsPerEvent)), extra)
		}
		f.Suites = append(f.Suites, sr)
	}
	return f, nil
}

// BurnAllocBytes, when non-zero, makes every benchmark profiler allocate
// this many bytes per kernel event — a deliberate host-side slowdown for
// exercising the regression guard (the bench CLI's guard self-test and
// the package tests set it; production runs leave it 0).
var BurnAllocBytes int

// measure runs one suite iteration under a fresh profiler and MemStats
// bracketing.
func measure(s Suite) (Iter, hostprof.Snapshot, error) {
	h := hostprof.New(0) // default stride
	h.BurnAllocBytes = BurnAllocBytes
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	virt, err := s.Run(h)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Iter{}, hostprof.Snapshot{}, err
	}
	snap := h.Snapshot()
	it := Iter{
		WallNs:       wall.Nanoseconds(),
		Events:       snap.Events,
		GCPauseNs:    int64(m1.PauseTotalNs - m0.PauseTotalNs),
		MaxHeapDepth: snap.MaxHeapDepth,
		VirtualUs:    virt.Micros(),
	}
	if wall > 0 {
		it.EventsPerSec = float64(snap.Events) / wall.Seconds()
	}
	if snap.Events > 0 {
		it.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(snap.Events)
		it.BytesPerEvent = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(snap.Events)
	}
	return it, snap, nil
}

// WriteFile serializes the artifact (indented, trailing newline).
func WriteFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and schema-checks an artifact.
func ReadFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("hostbench: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return File{}, fmt.Errorf("hostbench: %s: schema %d, this build reads %d", path, f.Schema, Schema)
	}
	return f, nil
}
