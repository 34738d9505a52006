package workload

import (
	"strings"
	"testing"

	"cellpilot/internal/hostprof"
)

// TestChaosDeterminism: the full chaos scenario — lossy links, an SPE
// kill, and mailbox drops at once — must be bit-for-bit reproducible.
func TestChaosDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, LossProb: 0.1, KillSPE: true, MailboxDrops: 3}
	a, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("chaos run not deterministic:\n--- run A ---\n%s\n--- run B ---\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
}

// TestChaosKillDegradation: killing the type-4 writer SPE mid-run faults
// only the type-4 flow; the other four channel types complete in full and
// the run reports a structured fault summary.
func TestChaosKillDegradation(t *testing.T) {
	r, err := Chaos(ChaosConfig{Seed: 3, KillSPE: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []int{1, 2, 3, 5} {
		if r.Completed[typ] != 20 {
			t.Errorf("type %d completed %d/20 round trips; kill should not touch it", typ, r.Completed[typ])
		}
	}
	if r.Completed[4] >= 20 {
		t.Errorf("type 4 completed all %d round trips despite its writer being killed", r.Completed[4])
	}
	if r.Counts.ProcsKilled != 1 {
		t.Errorf("ProcsKilled = %d, want 1", r.Counts.ProcsKilled)
	}
	if len(r.Killed) != 1 || !strings.Contains(r.Killed[0], "c4w#2") {
		t.Errorf("Killed = %v, want the c4w#2 stub", r.Killed)
	}
	if r.RunErr == "" {
		t.Error("Run returned nil despite a killed SPE; want a fault summary")
	}
}

// TestChaosLossyAllTypes: a 10% lossy inter-node link must not lose any
// traffic — all five channel types deliver every round trip, with the
// recovery visible in the retry counters and the metrics dump.
func TestChaosLossyAllTypes(t *testing.T) {
	r, err := Chaos(ChaosConfig{Seed: 42, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for typ := 1; typ <= 5; typ++ {
		if r.Completed[typ] != 20 {
			t.Errorf("type %d completed %d/20 round trips under 10%% loss", typ, r.Completed[typ])
		}
	}
	if r.RunErr != "" {
		t.Errorf("lossy run should recover cleanly, got error: %s", r.RunErr)
	}
	if r.Counts.LinkDrops == 0 {
		t.Error("no link drops recorded; the loss policy did not engage")
	}
	if r.Counts.Retransmits == 0 {
		t.Error("no retransmits recorded; drops were not recovered by retry")
	}
	found := false
	for _, line := range r.MetricsFaultLines {
		if strings.HasPrefix(line, "fault/retransmits") {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics dump lacks fault/retransmits: %v", r.MetricsFaultLines)
	}
}

// TestChaosMailboxFaults: dropped SPE descriptor words are recovered by
// the sequence/ACK repost protocol without losing any round trips.
func TestChaosMailboxFaults(t *testing.T) {
	r, err := Chaos(ChaosConfig{Seed: 9, MailboxDrops: 4})
	if err != nil {
		t.Fatal(err)
	}
	for typ := 1; typ <= 5; typ++ {
		if r.Completed[typ] != 20 {
			t.Errorf("type %d completed %d/20 round trips under mailbox drops", typ, r.Completed[typ])
		}
	}
	if r.RunErr != "" {
		t.Errorf("mailbox-fault run should recover cleanly, got error: %s", r.RunErr)
	}
	if r.Counts.MailboxDrops == 0 {
		t.Error("no mailbox drops recorded; events did not arm")
	}
	if r.Counts.MailboxReposts == 0 {
		t.Error("no reposts recorded; dropped descriptors were not retried")
	}
}

// TestChaosSweep: several seeds of the combined scenario all uphold the
// degradation contract (untouched flows complete; run never panics).
func TestChaosSweep(t *testing.T) {
	rs, err := ChaosSweep(ChaosConfig{LossProb: 0.1, KillSPE: true, MailboxDrops: 2, Reps: 10},
		[]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		for _, typ := range []int{1, 2, 3, 5} {
			if r.Completed[typ] != 10 {
				t.Errorf("seed %d: type %d completed %d/10", r.Config.Seed, typ, r.Completed[typ])
			}
		}
		if r.RunErr == "" {
			t.Errorf("seed %d: no fault summary despite kill", r.Config.Seed)
		}
	}
}

// TestChaosHostProfDeterminism: attaching the wall-clock host profiler —
// stride 1, so every slice is timed — must leave the same-seed chaos
// fingerprint bit-for-bit identical. Wall-clock observation lives strictly
// outside the virtual timeline.
func TestChaosHostProfDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, LossProb: 0.1, KillSPE: true, MailboxDrops: 3}
	bare, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := hostprof.New(1)
	cfg.Observe = observeHost(h)
	probed, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Fingerprint() != probed.Fingerprint() {
		t.Fatalf("host profiler perturbed the chaos run:\n--- bare ---\n%s\n--- probed ---\n%s",
			bare.Fingerprint(), probed.Fingerprint())
	}
	if snap := h.Snapshot(); snap.Events == 0 {
		t.Fatal("host profiler attached but saw no events")
	}
}
