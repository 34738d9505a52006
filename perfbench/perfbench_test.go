package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	wl "cellpilot/internal/workload"
)

// The facade pingpong must reproduce workload.PingPong's virtual mean
// one-way latency in every Table II cell, and the grid must match its
// recorded fingerprint.
func TestGridMatchesWorkloadPingPong(t *testing.T) {
	runs, err := runGrid(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range gridCells {
		want, err := wl.PingPong(wl.PingPongConfig{
			Type: c.typ, Bytes: c.bytes, Method: wl.MethodCellPilot, Reps: c.reps,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := runs[i].oneWay(c.reps); got != want.OneWay {
			t.Errorf("type %d %d B: facade one-way %v, workload.PingPong %v", c.typ, c.bytes, got, want.OneWay)
		}
		if runs[i].failed != 0 || runs[i].checks != c.reps+1 {
			t.Errorf("type %d %d B: %d of %d payload checks failed", c.typ, c.bytes, runs[i].failed, runs[i].checks)
		}
	}
	if checks, failed, fp := gridChecks(runs); failed != 0 {
		t.Errorf("grid fingerprint %s, recorded %s (%d of %d checks failed)", fp, gridWant, failed, checks)
	}
}

// The benchmark's fleet must fingerprint like workload.Kiloscale for the
// same nodes, reps and seed.
func TestFleetMatchesKiloscale(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		runs, err := runFleet(seed, 30, 5, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wl.Kiloscale(wl.KiloscaleConfig{Nodes: 30, Reps: 5, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := fleetFingerprint(runs, 5); got != want.Fingerprint {
			t.Errorf("seed %d: fleet fingerprint %s, kiloscale %s", seed, got, want.Fingerprint)
		}
	}
}

// The recorded full-size fleet fingerprint is workload.Kiloscale's.
func TestFleetRecordedFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 1000-node fleet")
	}
	want, err := wl.Kiloscale(wl.KiloscaleConfig{Nodes: fleetNodes, Reps: fleetReps, Seed: 5, Workers: fleetWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if want.Fingerprint != fleetWant {
		t.Fatalf("kiloscale fingerprint %s, recorded %s", want.Fingerprint, fleetWant)
	}
}

// A payload corrupted in flight must be caught and counted.
func TestInjectedMismatchRaisesFailFrac(t *testing.T) {
	runs, err := runGrid(1, func(i int, c *cell) {
		if c.typ == 5 && c.bytes == 1600 {
			c.corruptRound = 7
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checks, failed, _ := gridChecks(runs)
	// The corrupted round fails its payload check; the virtual timeline,
	// and so the fingerprint, is unchanged.
	if failed != 1 {
		t.Fatalf("%d of %d checks failed, want 1", failed, checks)
	}
	r := newReport(endToEnd, 0)
	r.absorb(checks, failed)
	var out bytes.Buffer
	if err := r.print(&out, "test"); err != nil {
		t.Fatal(err)
	}
	var res jsonResult
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v does not report the failure", res)
	}
}

// setup_s + run_s + the reported residual add back up to wall_s, and the
// residual is small.
func TestLayersSumToWall(t *testing.T) {
	r := newReport(layerMetrics, notObserved)
	m, err := tracedPasses(gridPass, 1, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	res := r.values["layers.residual_frac"]
	if sum := m.setup + m.run + res*m.wall; sum < 0.999*m.wall || sum > 1.001*m.wall {
		t.Fatalf("setup %.4f + run %.4f + residual %.4f != wall %.4f", m.setup, m.run, res*m.wall, m.wall)
	}
	if res < 0 || res > 0.05 {
		t.Fatalf("residual share %.4f outside [0, 0.05]", res)
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// Results measured with a different core count or GOMAXPROCS are not
// compared.
func TestCompareRefusesEnvMismatch(t *testing.T) {
	a := env{NumCPU: 2, GOMAXPROCS: 2}
	if err := comparable(a, a); err != nil {
		t.Fatal(err)
	}
	if comparable(a, env{NumCPU: 1, GOMAXPROCS: 2}) == nil {
		t.Fatal("nproc mismatch accepted")
	}
	if comparable(a, env{NumCPU: 2, GOMAXPROCS: 1}) == nil {
		t.Fatal("GOMAXPROCS mismatch accepted")
	}
}

// quartiles follows Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
