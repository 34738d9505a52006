package scenario

import (
	"strings"
	"testing"

	"cellpilot/internal/flowmap"
)

// flowScenario is a clean (fault-free) chaos run: all five channel types
// complete, so every canonical route carries traffic and node 1's
// Co-Pilot relays only the type-5 flow (the other types either stay on
// node 0 or bypass Co-Pilots entirely).
func flowScenario() *Scenario {
	return &Scenario{
		Name: "flowcheck",
		Seed: 11,
		Workloads: []Workload{
			{Kind: KindChaos, Reps: 10},
		},
	}
}

func TestFlowAssertionDecode(t *testing.T) {
	doc := `
name: flows
workloads:
  - kind: chaos
assertions:
  - kind: flow
    route: spe->copilot->mpi->copilot->spe
    min_bytes: 1024
    max_bytes: 1048576
    top_of: copilot@cell1
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Assertions) != 1 {
		t.Fatalf("assertions = %d", len(s.Assertions))
	}
	a := s.Assertions[0]
	if a.Kind != AssertFlow || a.Route != flowmap.RouteSPEtoRemSPE ||
		a.MinBytes != 1024 || a.MaxBytes != 1048576 || a.TopOf != "copilot@cell1" {
		t.Fatalf("flow assertion = %+v", a)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFlowValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"needs route or top_of", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertFlow}}
		}, "set route (byte bounds) and/or top_of"},
		{"unknown route", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertFlow, Route: "spe->teleport->spe", MinBytes: 1}}
		}, "unknown flow route"},
		{"negative bounds", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertFlow, Route: flowmap.RoutePPEtoPPE, MinBytes: -1}}
		}, "must be non-negative"},
		{"empty bounds", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertFlow, Route: flowmap.RoutePPEtoPPE, MinBytes: 10, MaxBytes: 5}}
		}, "bounds are empty"},
		{"top_of needs route", func(s *Scenario) {
			s.Assertions = []Assertion{{Kind: AssertFlow, TopOf: "copilot@cell1"}}
		}, "top_of needs a route"},
		{"needs chaos workload", func(s *Scenario) {
			s.Workloads = []Workload{{Kind: KindPingPong}}
			s.Assertions = []Assertion{{Kind: AssertFlow, Route: flowmap.RoutePPEtoPPE, MinBytes: 1}}
		}, "no chaos workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := flowScenario()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// One run, checked against passing and violated flow bounds. The clean
// chaos run delivers every route, and node 1's Co-Pilot sees only the
// type-5 relay traffic, so its top contributor travels the type-5 route.
func TestFlowChecksPassAndFail(t *testing.T) {
	s := flowScenario()
	s.Assertions = []Assertion{
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoRemSPE, MinBytes: 1},                           // traffic flowed: passes
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoRemSPE, TopOf: "copilot@cell1"},                // type 5 dominates cell1: passes
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoRemSPE, MaxBytes: 1},                           // way over: fails
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoRemSPE, MinBytes: 1 << 40},                     // unreachable: fails
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoSPE, TopOf: "copilot@cell1"},                   // type 4 never crosses cell1: fails
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoRemSPE, TopOf: "copilot@nowhere", MinBytes: 1}, // no such resource: fails
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vs := Check(out)
	byIndex := map[int][]Violation{}
	for _, v := range vs {
		byIndex[v.Index] = append(byIndex[v.Index], v)
	}
	for _, idx := range []int{0, 1} {
		if len(byIndex[idx]) != 0 {
			t.Errorf("assertions[%d] should pass: %v", idx, byIndex[idx])
		}
	}
	if len(byIndex[2]) != 1 || !strings.Contains(byIndex[2][0].Message, "bound ≤ 1 B") {
		t.Errorf("max-bytes violation = %v", byIndex[2])
	}
	if len(byIndex[3]) != 1 || !strings.Contains(byIndex[3][0].Message, "bound ≥") {
		t.Errorf("min-bytes violation = %v", byIndex[3])
	}
	if len(byIndex[4]) != 1 || !strings.Contains(byIndex[4][0].Message, "top contributor") {
		t.Errorf("top-of violation = %v", byIndex[4])
	}
	if len(byIndex[5]) != 1 || !strings.Contains(byIndex[5][0].Message, "no flow crossed resource") {
		t.Errorf("missing-resource violation = %v", byIndex[5])
	}
}

// A flow assertion forces a flowmap onto the chaos runs; its fingerprint
// lines fold into the scenario fingerprint and the whole outcome stays
// deterministic. Without one, no flowmap attaches — the zero-cost
// contract at the DSL layer.
func TestFlowFingerprintDeterministicUnderChaos(t *testing.T) {
	s := flowScenario()
	s.Assertions = []Assertion{
		{Kind: AssertFlow, Route: flowmap.RouteSPEtoRemSPE, MinBytes: 1},
		{Kind: AssertDeterminism},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, want := range []string{
		"  flowmap flows=",
		"  flowroute " + flowmap.RouteSPEtoRemSPE,
	} {
		if !strings.Contains(out.Fingerprint, want) {
			t.Fatalf("fingerprint missing %q:\n%s", want, out.Fingerprint)
		}
	}
	if out.DeterminismDiff != "" {
		t.Fatalf("fingerprints diverged:\n%s", out.DeterminismDiff)
	}
	if out.Chaos.Runs[0].Flows == nil {
		t.Fatal("flow assertion did not attach a flowmap")
	}
	if vs := Check(out); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}

	bare := flowScenario()
	bareOut, err := Run(bare, Options{})
	if err != nil {
		t.Fatalf("Run bare: %v", err)
	}
	if strings.Contains(bareOut.Fingerprint, "flowmap flows=") {
		t.Fatalf("bare run fingerprint carries flowmap lines:\n%s", bareOut.Fingerprint)
	}
	if bareOut.Chaos.Runs[0].Flows != nil {
		t.Fatal("bare run attached a flowmap")
	}
	// The flowmap rides along without perturbing the run: every
	// non-flowmap fingerprint line matches the bare run exactly.
	var nonFlow []string
	for _, line := range strings.Split(out.Fingerprint, "\n") {
		lt := strings.TrimSpace(line)
		if strings.HasPrefix(lt, "flowmap ") || strings.HasPrefix(lt, "flowroute ") {
			continue
		}
		nonFlow = append(nonFlow, line)
	}
	if got := strings.Join(nonFlow, "\n"); got != bareOut.Fingerprint {
		t.Fatalf("attaching a flowmap perturbed the run:\n--- with flows (flow lines stripped) ---\n%s\n--- bare ---\n%s",
			got, bareOut.Fingerprint)
	}
}
