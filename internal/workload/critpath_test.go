package workload

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/core"
	"cellpilot/internal/critpath"
	"cellpilot/internal/trace"
)

// tracedPingPong runs one CellPilot ping-pong cell with the recorder
// attached and returns the post-run report carrying Stats.CritPath.
func tracedPingPong(t *testing.T, cfg PingPongConfig) core.Stats {
	t.Helper()
	var st core.Stats
	cfg.Method = MethodCellPilot
	rec := trace.NewRecorder(0)
	cfg.Observe = func(a *core.App) error { return a.SetTrace(rec) }
	cfg.Stats = &st
	if _, err := PingPong(cfg); err != nil {
		t.Fatal(err)
	}
	if st.CritPath == nil {
		t.Fatal("Stats.CritPath nil with a recorder attached")
	}
	return st
}

// E-CP1 (acceptance): for every ping-pong transfer the per-stage blame
// attributions partition the end-to-end virtual latency exactly — within
// 1 ns per transfer, and in fact to the nanosecond.
func TestCritPathPartitionMatchesLatency(t *testing.T) {
	for typ := 1; typ <= 5; typ++ {
		st := tracedPingPong(t, PingPongConfig{Type: typ, Bytes: 1600, Reps: 20})
		if len(st.CritPath.Transfers) == 0 {
			t.Fatalf("type%d: no transfers analyzed", typ)
		}
		for _, tr := range st.CritPath.Transfers {
			var sum, queue int64
			for _, sb := range tr.Stages {
				sum += int64(sb.Total())
				queue += int64(sb.Queue)
			}
			if d := int64(tr.Dur()) - sum; d > 1 || d < -1 {
				t.Errorf("type%d transfer #%d: stages sum to %dns, end-to-end %v (off by %dns)",
					typ, tr.ID, sum, tr.Dur(), d)
			}
			if queue < 0 || queue > sum {
				t.Errorf("type%d transfer #%d: queueing %dns outside [0, %dns]", typ, tr.ID, queue, sum)
			}
		}
	}
}

// E-CP2: the full rendered report — human table, folded stacks and the
// machine-readable blame file — is byte-identical across repeated runs of
// the same seed, for both the plain protocol and the chunked engine (the
// size-sweep configuration).
func TestCritPathReportDeterministic(t *testing.T) {
	fingerprint := func(cfg PingPongConfig) string {
		st := tracedPingPong(t, cfg)
		var b bytes.Buffer
		b.WriteString(st.CritPath.Table())
		if err := st.CritPath.FoldedStacks(&b); err != nil {
			t.Fatal(err)
		}
		if err := st.CritPath.ToFile("det", cfg.Bytes, cfg.Reps).Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, cfg := range []PingPongConfig{
		{Type: 3, Bytes: 1600, Reps: 50},
		{Type: 1, Bytes: 64 << 10, Reps: 10,
			Transfer: core.TransferOptions{ChunkSize: 8 << 10}},
	} {
		a, b := fingerprint(cfg), fingerprint(cfg)
		if a == "" {
			t.Fatalf("type%d: empty report", cfg.Type)
		}
		if a != b {
			t.Fatalf("type%d: report fingerprint diverged across runs:\n%s\nvs\n%s", cfg.Type, a, b)
		}
	}
}

// E-CP3: golden blame table for the five Table I channel types at the
// paper payload — which stage dominates each type's critical path and in
// what order the rest follow. Any drift here means a protocol or
// calibration change and must be deliberate.
func TestGoldenBlameTable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden blame grid in short mode")
	}
	golden := map[int][]string{ // type -> stages by critical-path share, descending
		1: {"mpi-wait", "mpi-send", "pack"},
		2: {"mbox-wait", "mpi-wait", "relay", "copilot-wait", "pack", "copilot-service", "mpi-send"},
		3: {"mbox-wait", "mpi-wait", "relay", "mpi-send", "pack", "copilot-service", "copilot-wait"},
		4: {"mbox-wait", "copy", "copilot-service", "copilot-wait", "pack"},
		5: {"mbox-wait", "relay", "copilot-service", "pack", "copilot-wait"},
	}
	dominantShare := map[int]float64{ // type -> share of the top stage
		1: 0.7095, 2: 0.3823, 3: 0.3635, 4: 0.5315, 5: 0.6992,
	}
	for typ := 1; typ <= 5; typ++ {
		st := tracedPingPong(t, PingPongConfig{Type: typ, Bytes: 1600, Reps: 100})
		name := fmt.Sprintf("type%d", typ)
		tj, ok := st.CritPath.ToFile("pingpong", 1600, 100).TypeByName(name)
		if !ok {
			t.Fatalf("%s: no blame entry", name)
		}
		// TypeJSON emits stages in protocol (stage-kind) order; the golden
		// table ranks them by critical-path share.
		ranked := append([]critpath.StageJSON(nil), tj.Stages...)
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Share > ranked[j].Share })
		var got []string
		for _, s := range ranked {
			got = append(got, s.Stage)
		}
		want := golden[typ]
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s stage order = %v, golden %v", name, got, want)
		}
		if top := ranked[0].Share; top < dominantShare[typ]-0.02 || top > dominantShare[typ]+0.02 {
			t.Errorf("%s dominant stage share = %.4f, golden %.4f", name, top, dominantShare[typ])
		}
	}
}

// E-CP4 (acceptance): injecting a slowdown into one stage and diffing the
// blame decomposition against the unslowed baseline names the slowed
// stage — the same diff the bench guard prints when its 10%% gate trips.
func TestBlameDiffNamesSlowedStage(t *testing.T) {
	cfg := PingPongConfig{Type: 2, Bytes: 1600, Reps: 50}
	base := tracedPingPong(t, cfg)

	// Cripple pack/unpack bandwidth 100x — the pack stage, and only the
	// pack stage, gets slower.
	slow := cellbe.DefaultParams()
	slow.PackBytesPerSec /= 100
	slowCfg := cfg
	slowCfg.Params = slow
	now := tracedPingPong(t, slowCfg)

	bt, ok := base.CritPath.ToFile("pingpong", 1600, 50).TypeByName("type2")
	if !ok {
		t.Fatal("baseline has no type2 entry")
	}
	nt, ok := now.CritPath.ToFile("pingpong", 1600, 50).TypeByName("type2")
	if !ok {
		t.Fatal("slowed run has no type2 entry")
	}
	deltas := critpath.DiffType(bt, nt)
	if len(deltas) == 0 {
		t.Fatal("diff is empty despite a 100x pack slowdown")
	}
	if deltas[0].Stage != "pack" {
		t.Fatalf("top blame delta is %q (%+.1fus), want pack; all: %+v",
			deltas[0].Stage, deltas[0].DeltaUs, deltas)
	}
	out := critpath.FormatDiff("type2", deltas)
	if !strings.Contains(out, "blame: "+deltas[0].Stage) {
		t.Fatalf("formatted diff does not name the slowed stage:\n%s", out)
	}
}
