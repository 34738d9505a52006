package workload

import (
	"testing"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// TestTable2Golden pins the exact measured values of the calibrated
// model at the paper's repetition count. The simulation is deterministic,
// so any drift here means a change to the protocols or the calibration —
// which must be deliberate and re-recorded in EXPERIMENTS.md.
func TestTable2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid in short mode")
	}
	golden := map[[3]int]float64{ // {type, bytes, method} -> one-way µs
		{1, 1, 0}: 104.3, {1, 1, 1}: 98.0, {1, 1, 2}: 98.0,
		{1, 1600, 0}: 169.0, {1, 1600, 1}: 159.5, {1, 1600, 2}: 159.5,
		{2, 1, 0}: 63.0, {2, 1, 1}: 17.1, {2, 1, 2}: 16.0,
		{2, 1600, 0}: 70.0, {2, 1600, 1}: 17.2, {2, 1600, 2}: 30.5,
		{3, 1, 0}: 140.0, {3, 1, 1}: 115.1, {3, 1, 2}: 114.0,
		{3, 1600, 0}: 203.0, {3, 1600, 1}: 176.7, {3, 1600, 2}: 190.1,
		{4, 1, 0}: 112.0, {4, 1, 1}: 34.2, {4, 1, 2}: 32.0,
		{4, 1600, 0}: 126.0, {4, 1600, 1}: 34.3, {4, 1600, 2}: 61.1,
		{5, 1, 0}: 168.0, {5, 1, 1}: 132.2, {5, 1, 2}: 130.1,
		{5, 1600, 0}: 238.0, {5, 1600, 1}: 193.9, {5, 1600, 2}: 220.6,
	}
	for key, want := range golden {
		res, err := PingPong(PingPongConfig{
			Type: key[0], Bytes: key[1], Method: Method(key[2]), Reps: 1000,
		})
		if err != nil {
			t.Fatalf("%v: %v", key, err)
		}
		got := res.OneWay.Micros()
		if got < want-0.15 || got > want+0.15 {
			t.Errorf("type %d %dB %s: %.2fus, golden %.2fus",
				key[0], key[1], Method(key[2]), got, want)
		}
	}
}

// TestDeterminismAcrossGrid re-runs three representative cells and
// demands bit-identical virtual times.
func TestDeterminismAcrossGrid(t *testing.T) {
	for _, cfg := range []PingPongConfig{
		{Type: 2, Bytes: 1600, Method: MethodCellPilot, Reps: 100},
		{Type: 4, Bytes: 1, Method: MethodCellPilot, Reps: 100},
		{Type: 5, Bytes: 1600, Method: MethodCopy, Reps: 100},
	} {
		a, err := PingPong(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PingPong(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.OneWay != b.OneWay {
			t.Fatalf("%+v: %s vs %s", cfg, a.OneWay, b.OneWay)
		}
		if a.OneWay <= 0 || a.OneWay > sim.Millisecond {
			t.Fatalf("%+v: implausible %s", cfg, a.OneWay)
		}
	}
}

// TestKernelCountGolden pins the exact kernel work of one PingPong cell
// per Table I type at both paper sizes: events dispatched, event-queue
// pushes and pops, cancelled timers purged and host execution slices.
// The counts are deterministic, so any change to how the kernel or a
// protocol schedules work moves them — deliberately, and it shows here.
func TestKernelCountGolden(t *testing.T) {
	type counts struct{ events, pushes, pops, purged, slices uint64 }
	golden := map[[2]int]counts{ // {type, bytes}, 100 round trips
		{1, 1}: {1420, 1420, 1420, 0, 1420}, {1, 1600}: {1420, 1420, 1420, 0, 1420},
		{2, 1}: {4857, 4857, 4857, 0, 4857}, {2, 1600}: {4857, 4857, 4857, 0, 4857},
		{3, 1}: {5865, 5865, 5865, 0, 5865}, {3, 1600}: {5869, 5869, 5869, 0, 5869},
		{4, 1}: {7387, 7387, 7387, 0, 7387}, {4, 1600}: {7287, 7287, 7287, 0, 7287},
		{5, 1}: {10318, 10318, 10318, 0, 10318}, {5, 1600}: {10318, 10318, 10318, 0, 10318},
	}
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range []int{1, 1600} {
			h := hostprof.New(0)
			if _, err := PingPong(PingPongConfig{
				Type: typ, Bytes: bytes, Method: MethodCellPilot, Reps: 100,
				Observe: observeHost(h),
			}); err != nil {
				t.Fatalf("type %d %dB: %v", typ, bytes, err)
			}
			s := h.Snapshot()
			got := counts{s.Events, s.HeapPushes, s.HeapPops, s.CancelPurged, s.Slices}
			if want := golden[[2]int{typ, bytes}]; got != want {
				t.Errorf("type %d %dB: {events, pushes, pops, purged, slices} = %v, golden %v", typ, bytes, got, want)
			}
		}
	}
}
