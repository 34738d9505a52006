package hostprof

import (
	"strings"
	"testing"

	"cellpilot/internal/metrics"
)

func TestNilReceiverSafe(t *testing.T) {
	var p *Profiler
	p.Event()
	p.HeapPush(3)
	p.HeapPop()
	p.CancelPurge()
	p.SliceStart(1)
	p.Enter(SubsysMPI)
	p.Exit()
	p.SliceEnd(1)
	if s := p.Snapshot(); s.Events != 0 || len(s.Subsystems) != 0 {
		t.Fatalf("nil profiler snapshot not zero: %+v", s)
	}
}

func TestKernelCounters(t *testing.T) {
	p := New(1)
	for i := 0; i < 5; i++ {
		p.HeapPush(i + 1)
	}
	for i := 0; i < 3; i++ {
		p.HeapPop()
		p.Event()
	}
	p.HeapPop()
	p.CancelPurge()
	s := p.Snapshot()
	if s.Events != 3 || s.HeapPushes != 5 || s.HeapPops != 4 || s.CancelPurged != 1 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.MaxHeapDepth != 5 {
		t.Fatalf("max heap depth = %d, want 5", s.MaxHeapDepth)
	}
}

func TestSliceSamplingStride(t *testing.T) {
	p := New(4)
	for i := 0; i < 16; i++ {
		p.SliceStart(1)
		p.SliceEnd(1)
	}
	s := p.Snapshot()
	if s.Slices != 16 {
		t.Fatalf("slices = %d, want 16", s.Slices)
	}
	if s.SampledSlices != 4 {
		t.Fatalf("sampled = %d, want 4 (stride 4)", s.SampledSlices)
	}
	if s.SampledNs <= 0 || s.NsPerSlice <= 0 {
		t.Fatalf("sampled slices accumulated no time: %+v", s)
	}
}

func TestSubsystemAttribution(t *testing.T) {
	p := New(1) // sample everything
	p.SliceStart(1)
	p.Enter(SubsysMPI)
	p.Enter(SubsysFmtmsg)
	busy()
	p.Exit()
	p.Exit()
	p.SliceEnd(1)
	s := p.Snapshot()
	sh := subsysShares(s)
	if sh["fmtmsg"] <= 0 {
		t.Fatalf("fmtmsg got no time: %v", sh)
	}
	var total float64
	for _, v := range sh {
		total += v
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("shares sum to %v, want ~1: %v", total, sh)
	}
	for _, sub := range s.Subsystems {
		if sub.Name == "mpi" && sub.Calls != 1 {
			t.Fatalf("mpi calls = %d, want 1", sub.Calls)
		}
	}
}

// TestFrameSurvivesPark is the load-bearing property: a frame opened
// before a park tags only the owning proc's own slices. Another proc
// running while proc 1 is parked must not be charged to proc 1's frame.
func TestFrameSurvivesPark(t *testing.T) {
	p := New(1)

	// Proc 1 enters an MPI frame, then parks (slice ends, frame open).
	p.SliceStart(1)
	p.Enter(SubsysMPI)
	p.SliceEnd(1)

	// Proc 2 runs untagged code; it must land in "user", not "mpi".
	p.SliceStart(2)
	busy()
	p.SliceEnd(2)

	// Proc 1 resumes and closes the frame.
	p.SliceStart(1)
	busy()
	p.Exit()
	p.SliceEnd(1)

	sh := subsysShares(p.Snapshot())
	if sh["user"] <= 0 {
		t.Fatalf("proc 2's time missing from user bucket: %v", sh)
	}
	if sh["mpi"] <= 0 {
		t.Fatalf("proc 1's resumed slice missing from mpi bucket: %v", sh)
	}
}

// TestSchedulerCallbackStackReset: scheduler-callback slices never span
// each other, so a frame leaked by a panicking callback must not leak
// into the next callback's attribution.
func TestSchedulerCallbackStackReset(t *testing.T) {
	p := New(1)
	p.SliceStart(-1)
	p.Enter(SubsysInterconnect) // never exited (unwound)
	p.SliceEnd(-1)
	p.SliceStart(-1)
	busy()
	p.SliceEnd(-1)
	sh := subsysShares(p.Snapshot())
	if sh["kernel"] <= 0 {
		t.Fatalf("second callback's time not in kernel bucket: %v", sh)
	}
}

func TestExitOnEmptyStack(t *testing.T) {
	p := New(1)
	p.SliceStart(1)
	p.Exit() // unbalanced: must not panic
	p.SliceEnd(1)
}

func TestPublishTo(t *testing.T) {
	p := New(1)
	p.Event()
	p.HeapPush(1)
	p.SliceStart(1)
	p.Enter(SubsysCoPilot)
	busy()
	p.Exit()
	p.SliceEnd(1)
	reg := metrics.NewRegistry()
	p.Snapshot().PublishTo(reg)
	if v := reg.Gauge("host/events").Value(); v != 1 {
		t.Fatalf("host/events gauge = %v, want 1", v)
	}
	if v := reg.Gauge("host/subsys/copilot/share").Value(); v <= 0 {
		t.Fatalf("copilot share gauge = %v, want > 0", v)
	}
}

func TestSnapshotString(t *testing.T) {
	p := New(1)
	p.SliceStart(1)
	p.Enter(SubsysMPI)
	busy()
	p.Exit()
	p.SliceEnd(1)
	out := p.Snapshot().String()
	if !strings.Contains(out, "mpi") || !strings.Contains(out, "events") {
		t.Fatalf("report missing fields:\n%s", out)
	}
}

func TestSubsystemStrings(t *testing.T) {
	want := []string{"kernel", "user", "copilot", "mpi", "interconnect", "fmtmsg"}
	for i, w := range want {
		if got := Subsystem(i).String(); got != w {
			t.Fatalf("Subsystem(%d) = %q, want %q", i, got, w)
		}
	}
}

// busy spins long enough for time.Now deltas to be reliably nonzero.
var sink int

func busy() {
	for i := 0; i < 200000; i++ {
		sink += i
	}
}

func TestAbsorbMergesShardSnapshots(t *testing.T) {
	mk := func(events uint64, depth int, subsys Subsystem, ns int64) Snapshot {
		p := New(1)
		for i := uint64(0); i < events; i++ {
			p.HeapPush(depth)
			p.HeapPop()
			p.Event()
		}
		s := p.Snapshot()
		s.Subsystems = append(s.Subsystems, SubsysShare{Name: subsys.String(), Calls: 2, SampledNs: ns})
		return s
	}
	agg := New(1)
	agg.Absorb(mk(10, 3, SubsysMPI, 100))
	agg.Absorb(mk(7, 9, SubsysMPI, 50))
	agg.Absorb(mk(5, 2, SubsysCoPilot, 25))
	s := agg.Snapshot()
	if s.Events != 22 || s.HeapPushes != 22 || s.HeapPops != 22 {
		t.Fatalf("merged counters wrong: %+v", s)
	}
	if s.MaxHeapDepth != 9 {
		t.Fatalf("merged max depth = %d, want 9 (max, not sum)", s.MaxHeapDepth)
	}
	if s.Shards != 3 {
		t.Fatalf("Shards = %d, want 3", s.Shards)
	}
	shares := map[string]int64{}
	for _, sh := range s.Subsystems {
		shares[sh.Name] = sh.SampledNs
	}
	if shares["mpi"] != 150 || shares["copilot"] != 25 {
		t.Fatalf("subsystem merge wrong: %v", shares)
	}
	// Absorbing an already-merged snapshot carries its shard count through.
	agg2 := New(1)
	agg2.Absorb(s)
	if got := agg2.Snapshot().Shards; got != 3 {
		t.Fatalf("re-absorbed Shards = %d, want 3", got)
	}
	if !strings.Contains(s.String(), "merged from 3 shards") {
		t.Fatalf("String() missing shard note:\n%s", s)
	}
	reg := metrics.NewRegistry()
	s.PublishTo(reg)
	if v := reg.Gauge("host/shards").Value(); v != 3 {
		t.Fatalf("host/shards gauge = %v, want 3", v)
	}
}

// subsysShares returns name -> share of sampled host time.
func subsysShares(s Snapshot) map[string]float64 {
	out := make(map[string]float64, len(s.Subsystems))
	for _, sh := range s.Subsystems {
		out[sh.Name] = sh.Share
	}
	return out
}
