package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// gridCells is paper Table II: the five channel types at the paper's two
// payloads, a single "%b" byte and 100 long doubles ("%100Lf").
var gridCells = func() []cell {
	var cs []cell
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			cs = append(cs, cell{typ: typ, bytes: bytes, reps: gridReps, clusterSeed: gridClusterSeed, corruptRound: -1})
		}
	}
	return cs
}()

const (
	// gridReps is the paper's 1000 round trips per cell.
	gridReps = 1000
	// gridClusterSeed is the cluster seed workload.PingPong uses.
	gridClusterSeed = 7
	// gridWant is the recorded virtual-time fingerprint of the grid: every
	// cell's mean one-way latency and exact round-trip quantiles.
	gridWant = "1105e0acbda47c0e"
)

// gridInputs derives the seed's inputs: the order the cells run in and
// the salt mixed into every payload byte.
func gridInputs(seed int64) (order []int, salt byte) {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(len(gridCells)), byte(rng.Intn(256))
}

// runGrid runs every cell once in the seed's order; adjust, when non-nil,
// configures each cell first. Results are indexed like gridCells.
func runGrid(seed int64, adjust func(i int, c *cell)) ([]cellRun, error) {
	order, salt := gridInputs(seed)
	runs := make([]cellRun, len(gridCells))
	for _, i := range order {
		c := gridCells[i]
		c.salt = salt
		if adjust != nil {
			adjust(i, &c)
		}
		r, err := c.do()
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runs, nil
}

// gridQuantiles are a cell's exact round-trip quantiles over its raw
// samples (one-way is half).
type gridQuantiles struct{ p50, p99 sim.Time }

func quantilesOf(rtts []sim.Time) gridQuantiles {
	s := append([]sim.Time(nil), rtts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return gridQuantiles{p50: rankQuantile(s, 50), p99: rankQuantile(s, 99)}
}

// gridFingerprint digests every cell's virtual outcome.
func gridFingerprint(runs []cellRun) string {
	var b strings.Builder
	for i, c := range gridCells {
		q := quantilesOf(runs[i].rtts)
		fmt.Fprintf(&b, "type=%d bytes=%d oneway_ns=%d rtt_p50_ns=%d rtt_p99_ns=%d\n",
			c.typ, c.bytes, int64(runs[i].oneWay(c.reps)), int64(q.p50), int64(q.p99))
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// gridChecks tallies the payload checks of every round trip plus the
// fingerprint check.
func gridChecks(runs []cellRun) (checks, failed int, fp string) {
	for _, r := range runs {
		checks += r.checks
		failed += r.failed
	}
	fp = gridFingerprint(runs)
	checks++
	if fp != gridWant {
		failed++
	}
	return checks, failed, fp
}

func gridPass(seed int64) (passTimes, error) {
	runs, err := runGrid(seed, nil)
	if err != nil {
		return passTimes{}, err
	}
	var p passTimes
	for _, r := range runs {
		p.setup += r.build + r.configure
		p.run += r.run
	}
	p.checks, p.failed, _ = gridChecks(runs)
	return p, nil
}

var gridWorkload = workload{
	name:      "pingpong-grid",
	pass:      gridPass,
	traced:    gridTraced,
	setupNote: "cellpilot.NewCluster plus NewApp and the Create* calls of all 10 cells",
}

func gridTraced(seed int64, budget time.Duration, r *report) error {
	start := time.Now()
	bare, err := tracedPasses(gridPass, seed, 3, r)
	if err != nil {
		return err
	}

	// Counted pass: the benchmark's own kernel probe on every cell, and
	// the allocation counter read around every cluster build.
	probes := make([]*countProbe, len(gridCells))
	runs, err := runGrid(seed, func(i int, c *cell) {
		probes[i] = &countProbe{}
		c.probe = probes[i]
		c.bytesV = true
	})
	if err != nil {
		return err
	}
	checks, failed, fp := gridChecks(runs)
	r.absorb(checks, failed)
	r.note("grid fingerprint %s (recorded %s)", fp, gridWant)
	var total countProbe
	var build, configure time.Duration
	var buildBytes uint64
	var work workCounts
	for i, run := range runs {
		total.add(probes[i])
		build += run.build
		configure += run.configure
		buildBytes += run.buildBytes
		work.addStats(run.stats)
		c := gridCells[i]
		q := quantilesOf(run.rtts)
		key := fmt.Sprintf("virtual.t%d.b%d.oneway_", c.typ, c.bytes)
		r.set(key+"p50_us", q.p50.Micros()/2)
		r.set(key+"p99_us", q.p99.Micros()/2)
	}
	r.set("cluster.build_s", build.Seconds())
	r.set("cluster.build_mb", float64(buildBytes)/1e6)
	r.set("core.configure_s", configure.Seconds())
	work.report(r)

	// Subsystem shares: hostprof sampling every slice of every cell.
	profs := make([]*hostprof.Profiler, len(gridCells))
	if _, err := runGrid(seed, func(i int, c *cell) {
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

	calibrate(r, []int{1, 1600})
	total.report(r, bare.run, 1, r.values["sim.switch_ns"])
	return overheads(seed, budget-time.Since(start), r)
}
