package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

// smallScenario is a fast end-to-end scenario exercising every workload
// driver the executor dispatches to.
func smallScenario() *Scenario {
	return &Scenario{
		Name: "small",
		Seed: 3,
		Workloads: []Workload{
			{Kind: KindPingPong, Types: []int{1, 3}, Reps: 10},
			{Kind: KindChaos, Reps: 2},
		},
	}
}

func TestRunProducesFingerprint(t *testing.T) {
	s := smallScenario()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fp := out.Fingerprint
	for _, want := range []string{
		"scenario=small seed=3 topology=2x2+1",
		"pingpong type=1",
		"pingpong type=3",
		"chaos seed=3",
		"  completed=",
		"  blame type=",
		"  contention pairs=",
	} {
		if !strings.Contains(fp, want) {
			t.Fatalf("fingerprint missing %q:\n%s", want, fp)
		}
	}
	if out.PingPong == nil || len(out.PingPong.Types) != 2 {
		t.Fatalf("pingpong outcome: %+v", out.PingPong)
	}
	if out.Chaos == nil || len(out.Chaos.Runs) != 1 {
		t.Fatalf("chaos outcome: %+v", out.Chaos)
	}
	if out.Chaos.Runs[0].Stats.CritPath == nil {
		t.Fatalf("chaos run should carry a critical-path report")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	s := smallScenario()
	s.Assertions = []Assertion{{Kind: AssertDeterminism, Runs: 3}}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.DeterminismRuns != 3 {
		t.Fatalf("DeterminismRuns = %d", out.DeterminismRuns)
	}
	if out.DeterminismDiff != "" {
		t.Fatalf("fingerprints diverged:\n%s", out.DeterminismDiff)
	}
	if vs := Check(out); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestAssertionsPassAndFail(t *testing.T) {
	s := smallScenario()
	s.Assertions = []Assertion{
		{Kind: AssertLatency, Type: 1, MaxOneWayUs: 1e6},             // generous: passes
		{Kind: AssertCompleted, Type: 2, Full: true},                 // clean run: passes
		{Kind: AssertLatency, Type: 3, MaxOneWayUs: 0.001},           // impossible: fails
		{Kind: AssertBandwidth, Type: 1, MinMBps: 1e9},               // impossible: fails
		{Kind: AssertFaults, Min: map[string]int64{"link_drops": 5}}, // clean run: fails
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vs := Check(out)
	if len(vs) != 3 {
		t.Fatalf("want 3 violations, got %d: %v", len(vs), vs)
	}
	if vs[0].Index != 2 || !strings.Contains(vs[0].Message, "exceeds bound") {
		t.Fatalf("latency violation: %+v", vs[0])
	}
	if vs[1].Index != 3 || !strings.Contains(vs[1].Message, "below bound") {
		t.Fatalf("bandwidth violation: %+v", vs[1])
	}
	if vs[2].Index != 4 || !strings.Contains(vs[2].Message, "link_drops = 0 below bound 5") {
		t.Fatalf("faults violation: %+v", vs[2])
	}
}

func TestFaultyScenarioAssertions(t *testing.T) {
	// Lossy link + SPE kill: the canonical chaos shape. Asserts the
	// degradation contract end to end through the DSL.
	s := &Scenario{
		Name: "faulty",
		Seed: 3,
		Workloads: []Workload{
			{Kind: KindChaos, Reps: 3},
		},
		Faults: []FaultSpec{
			{Kind: FaultLossyLink, From: 0, To: 1, Bidirectional: true, DropProb: 0.15},
			{Kind: FaultKillSPE, At: sim.Millisecond, Proc: "c4w#2"},
		},
		Assertions: []Assertion{
			{Kind: AssertDegraded, Want: true, ErrorContains: "c4w#2"},
			{Kind: AssertFaults, Min: map[string]int64{"link_drops": 1, "retransmits": 1, "procs_killed": 1}},
			{Kind: AssertCompleted, Type: 2, Full: true}, // node-local type rides out the lossy internode link
			{Kind: AssertVirtualTime, MaxVirtual: 10 * sim.Second},
			{Kind: AssertDeterminism},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if vs := Check(out); len(vs) != 0 {
		t.Fatalf("violations:\n%s", violationText(vs))
	}
	// Breaking the expectation produces a blame-carrying message.
	s.Assertions = []Assertion{{Kind: AssertCompleted, Type: 4, Full: true}}
	out2, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vs := Check(out2)
	if len(vs) != 1 {
		t.Fatalf("want the killed type-4 flow to miss its bound, got %v", vs)
	}
	msg := vs[0].Message
	for _, want := range []string{"type 4 completed", "bound 3", "counts:", "fault log:"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("violation message missing %q:\n%s", want, msg)
		}
	}
}

func TestQuickModeShrinksMeasurementArms(t *testing.T) {
	s := smallScenario()
	s.Workloads[0].Reps = 200
	full, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run full: %v", err)
	}
	quick, err := Run(s, Options{Quick: true})
	if err != nil {
		t.Fatalf("Run quick: %v", err)
	}
	if full.PingPong.Reps != 200 || quick.PingPong.Reps != 30 {
		t.Fatalf("reps full=%d quick=%d", full.PingPong.Reps, quick.PingPong.Reps)
	}
	// Chaos reps are never shrunk: the fault arithmetic of committed
	// assertions depends on them.
	if full.Chaos.Reps != quick.Chaos.Reps {
		t.Fatalf("quick mode must not touch chaos reps: %d vs %d", full.Chaos.Reps, quick.Chaos.Reps)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	yamlPath := filepath.Join(dir, "g.yaml")
	golden := GoldenPath(yamlPath)
	if golden != filepath.Join(dir, "g.golden") {
		t.Fatalf("GoldenPath = %q", golden)
	}
	// Missing golden: flagged as missing, not a mismatch.
	diff, missing, err := CompareGolden(golden, "a\nb\n")
	if err != nil || !missing || diff != "" {
		t.Fatalf("missing golden: diff=%q missing=%v err=%v", diff, missing, err)
	}
	if err := WriteGolden(golden, "a\nb\n"); err != nil {
		t.Fatalf("WriteGolden: %v", err)
	}
	diff, missing, err = CompareGolden(golden, "a\nb\n")
	if err != nil || missing || diff != "" {
		t.Fatalf("match: diff=%q missing=%v err=%v", diff, missing, err)
	}
	diff, _, err = CompareGolden(golden, "a\nc\n")
	if err != nil || !strings.Contains(diff, "- b") || !strings.Contains(diff, "+ c") {
		t.Fatalf("mismatch diff = %q (err %v)", diff, err)
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file.yaml")
	if err := os.WriteFile(path, []byte(minimal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "mini" {
		t.Fatalf("name = %q", s.Name)
	}
	if _, err := Load(filepath.Join(dir, "absent.yaml")); err == nil {
		t.Fatalf("loading an absent file should error")
	}
	bad := filepath.Join(dir, "bad.yaml")
	os.WriteFile(bad, []byte("name: x\nworkloads:\n  - kind: warp\n"), 0o644)
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("load error should name the file, got %v", err)
	}
}

func TestListSummaries(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "b.yaml"), []byte("name: b-scen\ndescription: \"second\"\nworkloads:\n  - kind: chaos\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "a.yaml"), []byte("name: a-scen\ndescription: \"first\"\nworkloads:\n  - kind: chaos\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "broken.yaml"), []byte("name: [\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644)
	sums, err := ListSummaries(dir)
	if err != nil {
		t.Fatalf("ListSummaries: %v", err)
	}
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Name != "a-scen" || sums[0].Description != "first" {
		t.Fatalf("order/content: %+v", sums[0])
	}
	if !strings.HasPrefix(sums[2].Description, "BROKEN:") {
		t.Fatalf("broken file should surface its parse error: %+v", sums[2])
	}
}

func violationText(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String() + "\n")
	}
	return b.String()
}
