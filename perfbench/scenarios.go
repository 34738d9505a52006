package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"cellpilot/internal/scenario"
)

// scenarioDir is the checked-in scenario library, relative to the
// repository root.
const scenarioDir = "scenarios"

// scenarioPayloads are the payload sizes the scenario library declares
// (chaos runs default to 256 B); the format-engine calibration covers
// each of them.
var scenarioPayloads = []int{256, 1024, 1600, 2048, 16384, 65536}

// runScenarios loads, runs and checks every library scenario in full
// mode, in the seed's order. Each scenario's assertions and its golden
// fingerprint are output checks. each, when non-nil, sees every outcome.
func runScenarios(seed int64, each func(*scenario.Outcome)) (passTimes, error) {
	var p passTimes
	files, err := scenario.ListFiles(scenarioDir)
	if err != nil {
		return p, err
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(files)) {
		path := files[i]
		t0 := time.Now()
		s, err := scenario.Load(path) // parses and validates
		p.setup += time.Since(t0)
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		out, err := scenario.Run(s, scenario.Options{})
		p.run += time.Since(t1)
		if err != nil {
			return p, fmt.Errorf("%s: %w", path, err)
		}

		violated := map[int]bool{}
		for _, v := range scenario.Check(out) {
			violated[v.Index] = true
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", path, v)
		}
		diff, missing, err := scenario.CompareGolden(scenario.GoldenPath(path), out.Fingerprint)
		if err != nil {
			return p, err
		}
		p.checks += len(s.Assertions) + 1
		p.failed += len(violated)
		if missing || diff != "" {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: golden mismatch (missing=%v)\n%s\n", path, missing, diff)
		}
		if each != nil {
			each(out)
		}
	}
	return p, nil
}

func scenarioPass(seed int64) (passTimes, error) { return runScenarios(seed, nil) }

var scenarioWorkload = workload{
	name:      "scenario-fleet",
	pass:      scenarioPass,
	traced:    scenarioTraced,
	setupNote: "scenario load + validate only: the scenario runner builds its own clusters inside run_s",
}

// scenarioTraced reports the layers the scenario runner lets the
// benchmark see: the work and fault counters of the chaos runs, the
// collector and the calibrations. Kernel counts and host shares are not
// observable here; they read -1.
func scenarioTraced(seed int64, _ time.Duration, r *report) error {
	if _, err := tracedPasses(scenarioPass, seed, 2, r); err != nil {
		return err
	}
	var work workCounts
	var retrans, dups, drops, corrupts, mboxDrops, reposts, timeouts, killed int64
	p, err := runScenarios(seed, func(out *scenario.Outcome) {
		if out.Chaos == nil {
			return
		}
		for _, run := range out.Chaos.Runs {
			work.addStats(run.Stats)
			c := run.Result.Counts
			retrans += c.Retransmits
			dups += c.DupFrames
			drops += c.LinkDrops
			corrupts += c.LinkCorrupts
			mboxDrops += c.MailboxDrops
			reposts += c.MailboxReposts
			timeouts += c.OpTimeouts
			killed += c.ProcsKilled
		}
	})
	if err != nil {
		return err
	}
	r.absorb(p.checks, p.failed)
	work.report(r)
	for name, v := range map[string]int64{
		"mpi.retransmits":       retrans,
		"mpi.dup_frames":        dups,
		"fault.link_drops":      drops,
		"fault.link_corrupts":   corrupts,
		"fault.mailbox_drops":   mboxDrops,
		"fault.mailbox_reposts": reposts,
		"fault.op_timeouts":     timeouts,
		"fault.procs_killed":    killed,
	} {
		r.set(name, float64(v))
	}
	r.note("work and fault counts cover the chaos runs only; the pingpong, sizesweep and imb arms expose no App.Stats")
	calibrate(r, scenarioPayloads)
	return nil
}
