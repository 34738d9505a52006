package cellbe

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

// A window must lie inside one allocation; a zero-length one only needs
// to be in range.
func TestMemoryWindowInsideOneAllocation(t *testing.T) {
	m := NewMemory(4096)
	a, _ := m.Alloc(100, 128) // [0,100)
	b, _ := m.Alloc(64, 1)    // [100,164): abuts a
	c, _ := m.Alloc(32, 256)  // [256,288): a gap before it
	for _, w := range []struct {
		addr int64
		n    int
	}{{a, 100}, {a + 10, 90}, {b, 64}, {b + 63, 1}, {c, 32}} {
		got, err := m.Window(w.addr, w.n)
		if err != nil || len(got) != w.n || cap(got) != w.n {
			t.Errorf("Window(%#x, %d) = len %d cap %d, %v", w.addr, w.n, len(got), cap(got), err)
		}
	}
	for _, addr := range []int64{a, 200, 3000, 4096} {
		got, err := m.Window(addr, 0)
		if err != nil || got == nil || len(got) != 0 {
			t.Errorf("zero-length Window(%#x) = %v, %v", addr, got, err)
		}
	}
	for _, w := range []struct {
		what string
		addr int64
		n    int
	}{
		{"straddles a and b", a + 90, 20},
		{"overruns c past the break", c + 16, 32},
		{"alignment gap", 200, 8},
		{"beyond the break", 300, 8},
		{"whole capacity", 0, 4096},
	} {
		_, err := m.Window(w.addr, w.n)
		if err == nil || !strings.Contains(err.Error(), "not inside one allocation") {
			t.Errorf("%s: Window(%#x, %d) err = %v", w.what, w.addr, w.n, err)
		}
	}
}

// Backing never moves: a window taken before later allocations still
// aliases the bytes a fresh window sees.
func TestMemoryWindowSurvivesLaterAllocs(t *testing.T) {
	m := NewMemory(1 << 20)
	addr, _ := m.Alloc(256, 128)
	old, err := m.Window(addr, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := m.Alloc(1000, 16); err != nil {
			t.Fatal(err)
		}
	}
	copy(old, "written through the old window")
	fresh, err := m.Window(addr, 30)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != "written through the old window" {
		t.Fatalf("fresh window reads %q", fresh)
	}
	if !bytes.Equal(make([]byte, 226), old[30:]) {
		t.Fatal("allocation not zeroed")
	}
}

// The local store's capacity is a paper constraint: overflow fires at the
// same byte whether or not the store is backed, and the allocator never
// backs it.
func TestLocalStoreOverflowAtTheSameByte(t *testing.T) {
	ls := NewLocalStore(1024)
	var ov *ErrLSOverflow
	err := ls.LoadImage("img", 1025)
	if !errors.As(err, &ov) || ov.Want != 1025 || ov.Free != 1024 || ov.Size != 1024 {
		t.Fatalf("oversized image: %v", err)
	}
	if err := ls.LoadImage("img", 1024); err != nil {
		t.Fatalf("image filling the store: %v", err)
	}
	if err := ls.LoadImage("img", 100); err != nil { // buffers start at 112
		t.Fatal(err)
	}
	if addr, err := ls.Alloc("buf", 912, 16); err != nil || addr != 112 {
		t.Fatalf("buffer filling the store: addr=%#x err=%v", addr, err)
	}
	if err := ls.Release(); err != nil {
		t.Fatal(err)
	}
	_, err = ls.Alloc("buf", 913, 16)
	want := "cellbe: SPE local store overflow: buf needs 913 bytes, 912 free of 1024"
	if !errors.As(err, &ov) || err.Error() != want {
		t.Fatalf("overflow: %v, want %q", err, want)
	}
	if ls.data != nil {
		t.Fatal("LoadImage/Alloc backed the store")
	}
	if ls.Size() != 1024 || ls.Free() != 912 || ls.Resident() != 100 {
		t.Fatalf("size=%d free=%d resident=%d", ls.Size(), ls.Free(), ls.Resident())
	}
}

// An SPE nobody reserved reads as zeros through its EA mapping, and the
// window it gets aliases the store from then on.
func TestIdleLocalStoreReadsZeros(t *testing.T) {
	n := newTestNode(sim.NewKernel(1))
	spe, _ := n.SPE(5)
	w, err := n.EAWindow(spe.LSBase(), spe.LS.Size())
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != spe.LS.Size() || !bytes.Equal(w, make([]byte, spe.LS.Size())) {
		t.Fatal("idle local store does not read as zeros")
	}
	copy(w[64:], "kept")
	spe.LS.Back() // a later reservation keeps the bytes
	direct, _ := spe.LS.Window(64, 4)
	if string(direct) != "kept" {
		t.Fatalf("LS window reads %q", direct)
	}
}
