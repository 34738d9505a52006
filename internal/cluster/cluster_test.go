package cluster

import (
	"runtime"
	"testing"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/sim"
)

func TestPaperSpecTopology(t *testing.T) {
	c, err := New(PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(c.Nodes))
	}
	if got := len(c.CellNodesList()); got != 8 {
		t.Fatalf("cell nodes = %d, want 8", got)
	}
	if got := len(c.XeonNodesList()); got != 4 {
		t.Fatalf("xeon nodes = %d, want 4", got)
	}
	if c.TotalSPEs() != 8*16 {
		t.Fatalf("SPEs = %d, want 128", c.TotalSPEs())
	}
	// Cell blades come first and keep stable IDs.
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	c, err := New(Spec{CellNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Params == nil || c.Params.LSSize != 256*1024 {
		t.Fatal("default params not applied")
	}
	if len(c.Nodes[0].SPEs()) != 16 {
		t.Fatalf("default CellsPerNode should be 2 (16 SPEs), got %d SPEs", len(c.Nodes[0].SPEs()))
	}
	if _, err := New(Spec{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestNetworkTiming(t *testing.T) {
	par := cellbe.DefaultParams()
	c, err := New(Spec{CellNodes: 2, Params: par})
	if err != nil {
		t.Fatal(err)
	}
	var arrival sim.Time
	c.K.Spawn("sender", func(p *sim.Proc) {
		arrival, _ = c.Net.Send(p, 0, 1, 1600)
	})
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	want := c.Net.OneWayTime(1600)
	if arrival != want {
		t.Fatalf("arrival %s, want %s", arrival, want)
	}
	// Paper-scale sanity: 1600 B one-way should be in the 100-200us band
	// (hand-coded type 1 at 1600B is 160us).
	if arrival < 100*sim.Microsecond || arrival > 200*sim.Microsecond {
		t.Fatalf("1600B one-way %s outside the calibrated band", arrival)
	}
	msgs, bytes := c.Net.Stats()
	if msgs != 1 || bytes != 1600 {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

func TestNetworkContention(t *testing.T) {
	c, err := New(Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a1, a2 sim.Time
	c.K.Spawn("s1", func(p *sim.Proc) { a1, _ = c.Net.Send(p, 0, 1, 100000) })
	c.K.Spawn("s2", func(p *sim.Proc) { a2, _ = c.Net.Send(p, 0, 2, 100000) })
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	if a2 <= a1 {
		t.Fatalf("second transfer on a shared NIC must queue: %s vs %s", a2, a1)
	}
}

func TestSpecRejectsNegativeCounts(t *testing.T) {
	if _, err := New(Spec{CellNodes: -1}); err == nil {
		t.Fatal("negative cell nodes accepted")
	}
	if _, err := New(Spec{CellNodes: 1, XeonNodes: -2}); err == nil {
		t.Fatal("negative xeon nodes accepted")
	}
}

func TestNodeListsPartition(t *testing.T) {
	c, err := New(Spec{CellNodes: 3, XeonNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.CellNodesList())+len(c.XeonNodesList()) != len(c.Nodes) {
		t.Fatal("node lists do not partition the cluster")
	}
	for _, n := range c.CellNodesList() {
		if n.Arch != cellbe.ArchCell {
			t.Fatal("wrong arch in cell list")
		}
	}
}

// Building the paper's testbed costs what its nodes' models need, not
// their memory capacities: main memory and local stores are backed only
// once something allocates or reserves them, so a build stays far below
// the 12 × 64 MiB + 128 × 256 KiB those capacities add up to.
func TestPaperSpecBuildAllocCeiling(t *testing.T) {
	const builds, ceiling = 5, 1 << 20
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := New(PaperSpec()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("cluster.New(PaperSpec()) allocates %d bytes", perBuild)
	if perBuild >= ceiling {
		t.Fatalf("cluster.New(PaperSpec()) allocates %d bytes, ceiling %d", perBuild, ceiling)
	}
}
