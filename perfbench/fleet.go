package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

const (
	// fleetNodes is the simulated-node budget, tiled into 3-node
	// replicas (2 Cell blades + 1 Xeon).
	fleetNodes = 1000
	// fleetReps and fleetBytes are each replica's round trips and
	// payload, as workload.Kiloscale's pingpong fleet uses them.
	fleetReps  = 50
	fleetBytes = 256
	// fleetWant is the recorded fleet fingerprint. It equals
	// workload.Kiloscale's for the same nodes and reps, and does not
	// depend on the seed: a clean pingpong draws nothing from the kernel
	// RNG.
	fleetWant = "bfdd1285de5b0f29"
)

// fleetReplicas is the replica count the node budget rounds up to.
func fleetReplicas(nodes int) int { return (nodes + 2) / 3 }

// fleetWorkers is one worker per host core, bounded by GOMAXPROCS.
func fleetWorkers() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// fleetCell is replica i's pingpong: the channel types cycle 1..5 and
// every replica derives its own cluster seed, as in workload.Kiloscale.
func fleetCell(seed int64, i, reps int) cell {
	if seed == 0 {
		seed = 1 // workload.Kiloscale's default
	}
	return cell{
		typ: 1 + i%5, bytes: fleetBytes, reps: reps,
		clusterSeed:  seed + int64(i)*1_000_003,
		salt:         byte(seed) + byte(i),
		corruptRound: -1,
	}
}

// runFleet runs every replica as one logical process of a sim.Sharded
// runtime with the given worker count; adjust, when non-nil, configures
// each replica's cell first. Results are indexed by replica.
func runFleet(seed int64, nodes, reps, workers int, adjust func(i int, c *cell)) ([]cellRun, error) {
	runs := make([]cellRun, fleetReplicas(nodes))
	s := sim.NewSharded(workers)
	for i := range runs {
		i := i
		s.AddLP(fmt.Sprintf("replica%d", i), func(*sim.LP) error {
			c := fleetCell(seed, i, reps)
			if adjust != nil {
				adjust(i, &c)
			}
			r, err := c.do()
			if err != nil {
				return fmt.Errorf("replica %d: %w", i, err)
			}
			r.rtts = nil // only the mean one-way enters the fingerprint
			runs[i] = r
			return nil
		})
	}
	return runs, s.Run()
}

// fleetFingerprint renders the replicas' outcomes the way
// workload.Kiloscale does and digests them.
func fleetFingerprint(runs []cellRun, reps int) string {
	lines := make([]string, len(runs))
	for i, r := range runs {
		lines[i] = fmt.Sprintf("rep=%d type=%d oneway=%d", i, 1+i%5, int64(r.oneWay(reps)))
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%016x", h.Sum64())
}

// fleetChecks tallies every replica's payload checks plus the fingerprint
// check.
func fleetChecks(runs []cellRun) (checks, failed int, fp string) {
	for _, r := range runs {
		checks += r.checks
		failed += r.failed
	}
	fp = fleetFingerprint(runs, fleetReps)
	checks++
	if fp != fleetWant {
		failed++
	}
	return checks, failed, fp
}

// fleetPhases sums the replicas' setup and run time and divides by the
// worker count: the share of the pass's wall time each phase fills.
func fleetPhases(runs []cellRun, workers int) (setup, run time.Duration) {
	for _, r := range runs {
		setup += r.build + r.configure
		run += r.run
	}
	return setup / time.Duration(workers), run / time.Duration(workers)
}

func fleetPass(seed int64) (passTimes, error) {
	w := fleetWorkers()
	runs, err := runFleet(seed, fleetNodes, fleetReps, w, nil)
	if err != nil {
		return passTimes{}, err
	}
	var p passTimes
	p.setup, p.run = fleetPhases(runs, w)
	p.checks, p.failed, _ = fleetChecks(runs)
	return p, nil
}

// fleetWarm warms the runtime up with a tenth of the fleet: the payload
// checks count, the fingerprint (recorded for the full fleet) does not.
func fleetWarm(seed int64) (passTimes, error) {
	runs, err := runFleet(seed, fleetNodes/10, fleetReps, fleetWorkers(), nil)
	var p passTimes
	for _, r := range runs {
		p.checks += r.checks
		p.failed += r.failed
	}
	return p, err
}

var fleetWorkload = workload{
	name:      "fleet",
	pass:      fleetPass,
	warm:      fleetWarm,
	traced:    fleetTraced,
	setupNote: "cellpilot.NewCluster plus App configuration of all replicas, summed and divided by the worker count (run_s likewise)",
}

// fleetArm is one traced fleet run with a kernel probe on every replica.
type fleetArm struct {
	runs  []cellRun
	probe countProbe
	wall  time.Duration
	gc    gcSample
}

func runFleetArm(seed int64, workers int, bytesV bool, r *report) (fleetArm, error) {
	var a fleetArm
	probes := make([]*countProbe, fleetReplicas(fleetNodes))
	runtime.GC()
	g0 := readGC()
	t0 := time.Now()
	runs, err := runFleet(seed, fleetNodes, fleetReps, workers, func(i int, c *cell) {
		probes[i] = &countProbe{}
		c.probe = probes[i]
		c.bytesV = bytesV
	})
	a.wall = time.Since(t0)
	a.gc = readGC().since(g0)
	if err != nil {
		return a, err
	}
	a.runs = runs
	for _, p := range probes {
		a.probe.add(p)
	}
	checks, failed, fp := fleetChecks(runs)
	r.absorb(checks, failed)
	r.note("fleet fingerprint with %d worker(s): %s (recorded %s); wall %.3f s, GC CPU %.3f s over %d cycles",
		workers, fp, fleetWant, a.wall.Seconds(), a.gc.cpuS, a.gc.cycles)
	return a, nil
}

func fleetTraced(seed int64, _ time.Duration, r *report) error {
	w := fleetWorkers()
	bare, err := tracedPasses(fleetPass, seed, 1, r)
	if err != nil {
		return err
	}

	// Sequential arm (1 worker) against the parallel arm: the virtual
	// outcome and every kernel count must be identical; the collector's
	// CPU time is reported per arm.
	seq, err := runFleetArm(seed, 1, true, r)
	if err != nil {
		return err
	}
	par, err := runFleetArm(seed, w, false, r)
	if err != nil {
		return err
	}
	r.check(fleetFingerprint(seq.runs, fleetReps) == fleetFingerprint(par.runs, fleetReps),
		"sequential and parallel fleet fingerprints differ")
	r.check(seq.probe == par.probe, "sequential and parallel kernel counts differ")
	r.set("sim.parallel_speedup", seq.wall.Seconds()/par.wall.Seconds())
	r.set("go.gc_cpu_s.seq", seq.gc.cpuS)
	r.set("go.gc_cpu_s.par", par.gc.cpuS)

	var build, configure time.Duration
	var buildBytes uint64
	var work workCounts
	for i, run := range par.runs {
		build += run.build
		configure += run.configure
		buildBytes += seq.runs[i].buildBytes // exact only without concurrent builds
		work.addStats(run.stats)
	}
	r.set("cluster.build_s", build.Seconds()/float64(w))
	r.set("core.configure_s", configure.Seconds()/float64(w))
	r.set("cluster.build_mb", float64(buildBytes)/1e6)
	r.note("cluster.build_s and core.configure_s are summed over replicas and divided by %d worker(s); cluster.build_mb comes from the sequential arm", w)
	work.report(r)

	profs := make([]*hostprof.Profiler, fleetReplicas(fleetNodes))
	if _, err := runFleet(seed, fleetNodes, fleetReps, w, func(i int, c *cell) {
		profs[i] = hostprof.New(1)
		c.observe = hostProfiled(profs[i])
	}); err != nil {
		return err
	}
	all := hostprof.New(1)
	for _, p := range profs {
		all.Absorb(p.Snapshot())
	}
	reportShares(r, all.Snapshot())

	calibrate(r, []int{fleetBytes})
	par.probe.report(r, bare.run, w, r.values["sim.switch_ns"])
	return nil
}
