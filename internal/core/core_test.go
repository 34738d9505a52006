package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"cellpilot/internal/cluster"
	"cellpilot/internal/sim"
)

// newTestCluster builds the standard test machine: 2 Cell blades + 1 Xeon.
func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChannelTypeResolution(t *testing.T) {
	// E6: the Table I taxonomy, for every endpoint combination.
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	ppe0 := a.Main() // node 0 (cell0)
	ppe1 := a.CreateProcessOn(1, "ppe1", func(*Ctx, int, any) {}, 0, nil)
	xeon := a.CreateProcessOn(2, "xeon", func(*Ctx, int, any) {}, 0, nil)
	prog := &SPEProgram{Name: "s", Body: func(*SPECtx) {}}
	spe0a := a.CreateSPE(prog, ppe0, 0)
	spe0b := a.CreateSPE(prog, ppe0, 1)
	spe1 := a.CreateSPE(prog, ppe1, 0)

	cases := []struct {
		from, to *Process
		want     ChannelType
	}{
		{ppe0, ppe1, Type1},  // PPE <-> remote PPE
		{ppe0, xeon, Type1},  // PPE <-> non-Cell
		{ppe0, spe0a, Type2}, // PPE <-> local SPE
		{spe0a, ppe0, Type2},
		{ppe1, spe0a, Type3}, // remote PPE <-> SPE
		{xeon, spe1, Type3},  // non-Cell <-> SPE
		{spe1, xeon, Type3},
		{spe0a, spe0b, Type4}, // SPE <-> local SPE
		{spe0a, spe1, Type5},  // SPE <-> remote SPE
		{spe1, spe0b, Type5},
	}
	for _, tc := range cases {
		ch := a.CreateChannel(tc.from, tc.to)
		if ch.Type() != tc.want {
			t.Errorf("channel %s -> %s resolved to %s, want %s", tc.from, tc.to, ch.Type(), tc.want)
		}
	}
}

func TestType1TransferAcrossArch(t *testing.T) {
	// Cell PPE (big-endian) to Xeon (little-endian): values must survive.
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var got []float64
	var gotN int32
	reader := a.CreateProcessOn(2, "reader", func(ctx *Ctx, index int, arg any) {
		out := make([]float64, 4)
		var n int32
		ctx.Read(arg.(*Channel), "%d %4lf", &n, out)
		got, gotN = out, n
	}, 0, nil)
	ch := a.CreateChannel(a.Main(), reader)
	reader.arg = ch
	err := a.Run(func(ctx *Ctx) {
		ctx.Write(ch, "%d %4lf", int32(7), []float64{1.5, -2.25, 3.125, 1e300})
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotN != 7 || got[0] != 1.5 || got[1] != -2.25 || got[2] != 3.125 || got[3] != 1e300 {
		t.Fatalf("got n=%d vals=%v", gotN, got)
	}
}

func TestType2PingPong(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	prog := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		in := make([]int32, 64)
		ctx.Read(ctx.Env().(map[string]*Channel)["down"], "%64d", in)
		for i := range in {
			in[i] *= 2
		}
		ctx.Write(ctx.Env().(map[string]*Channel)["up"], "%64d", in)
	}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	down := a.CreateChannel(a.Main(), spe)
	up := a.CreateChannel(spe, a.Main())
	if down.Type() != Type2 || up.Type() != Type2 {
		t.Fatalf("types %s/%s", down.Type(), up.Type())
	}
	var got []int32
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, map[string]*Channel{"down": down, "up": up})
		out := make([]int32, 64)
		for i := range out {
			out[i] = int32(i)
		}
		ctx.Write(down, "%64d", out)
		got = make([]int32, 64)
		ctx.Read(up, "%64d", got)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(2*i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestType3RemoteSPE(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	prog := &SPEProgram{Name: "worker", Body: func(ctx *SPECtx) {
		chs := ctx.Env().([]*Channel)
		var v float32
		ctx.Read(chs[0], "%f", &v)
		ctx.Write(chs[1], "%f", v*v)
	}}
	ppe := a.CreateProcessOn(0, "parent", func(ctx *Ctx, index int, arg any) {
		chs := arg.([]*Channel)
		ctx.RunSPE(ctx.app.procs[2], 0, chs) // spe is process id 2
	}, 0, nil)
	spe := a.CreateSPE(prog, ppe, 0)
	xeon := a.CreateProcessOn(2, "xeon", func(ctx *Ctx, index int, arg any) {
		chs := arg.([]*Channel)
		ctx.Write(chs[0], "%f", float32(1.5))
		var sq float32
		ctx.Read(chs[1], "%f", &sq)
		if sq != 2.25 {
			ctx.app.K.Abort(errors.New("wrong square"))
		}
	}, 0, nil)
	toSPE := a.CreateChannel(xeon, spe)
	fromSPE := a.CreateChannel(spe, xeon)
	if toSPE.Type() != Type3 || fromSPE.Type() != Type3 {
		t.Fatalf("types %s/%s", toSPE.Type(), fromSPE.Type())
	}
	chs := []*Channel{toSPE, fromSPE}
	ppe.arg = chs
	xeon.arg = chs
	if err := a.Run(func(ctx *Ctx) {}); err != nil {
		t.Fatal(err)
	}
}

func TestType4LocalSPEPair(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var ch *Channel
	send := &SPEProgram{Name: "send", Body: func(ctx *SPECtx) {
		arr := make([]byte, 1600)
		for i := range arr {
			arr[i] = byte(i % 251)
		}
		ctx.Write(ch, "%1600b", arr)
	}}
	recv := &SPEProgram{Name: "recv", Body: func(ctx *SPECtx) {
		arr := make([]byte, 1600)
		ctx.Read(ch, "%1600b", arr)
		for i := range arr {
			if arr[i] != byte(i%251) {
				ctx.P.Fatalf("corrupt at %d", i)
			}
		}
	}}
	s1 := a.CreateSPE(send, a.Main(), 0)
	s2 := a.CreateSPE(recv, a.Main(), 1)
	ch = a.CreateChannel(s1, s2)
	if ch.Type() != Type4 {
		t.Fatalf("type %s", ch.Type())
	}
	var msgs int
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(s1, 0, nil)
		ctx.RunSPE(s2, 0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Type 4 must not touch MPI's network path.
	msgs, _ = c.Net.Stats()
	if msgs != 0 {
		t.Fatalf("type-4 transfer crossed the network: %d messages", msgs)
	}
}

// TestPaperFigure34 reproduces the paper's sample program: two Cell
// nodes; each PPE starts one SPE; one SPE writes an array of 100 integers
// to the other over a Type 5 channel, relayed through two Co-Pilots.
func TestPaperFigure34(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var betweenSPEs *Channel
	speSend := &SPEProgram{Name: "spe_send", Body: func(ctx *SPECtx) {
		arr := make([]int32, 100)
		for i := range arr {
			arr[i] = int32(i)
		}
		ctx.Write(betweenSPEs, "%100d", arr)
	}}
	var got []int32
	speRecv := &SPEProgram{Name: "spe_recv", Body: func(ctx *SPECtx) {
		arr := make([]int32, 100)
		ctx.Read(betweenSPEs, "%*d", 100, arr) // the paper's "%*d" syntax
		got = arr
	}}
	recvPPE := a.CreateProcessOn(1, "recvFunc", func(ctx *Ctx, index int, arg any) {
		ctx.RunSPE(arg.(*Process), 0, nil)
	}, 0, nil)
	sendSPE := a.CreateSPE(speSend, a.Main(), 0)
	recvSPE := a.CreateSPE(speRecv, recvPPE, 0)
	recvPPE.arg = recvSPE
	betweenSPEs = a.CreateChannel(sendSPE, recvSPE)
	if betweenSPEs.Type() != Type5 {
		t.Fatalf("type %s, want type5", betweenSPEs.Type())
	}
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(sendSPE, 0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestWriterEnforcement(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	other := a.CreateProcessOn(1, "other", func(ctx *Ctx, index int, arg any) {
		// other is the reader but tries to write.
		ctx.Write(arg.(*Channel), "%d", int32(1))
	}, 0, nil)
	ch := a.CreateChannel(a.Main(), other)
	other.arg = ch
	err := a.Run(func(ctx *Ctx) {})
	if err == nil || !strings.Contains(err.Error(), "is not the writer") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "core_test.go:") {
		t.Fatalf("diagnostic lacks file:line: %v", err)
	}
}

func TestFormatMismatchAborts(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	reader := a.CreateProcessOn(1, "reader", func(ctx *Ctx, index int, arg any) {
		var f float32
		ctx.Read(arg.(*Channel), "%f", &f) // writer sends %d
	}, 0, nil)
	ch := a.CreateChannel(a.Main(), reader)
	reader.arg = ch
	err := a.Run(func(ctx *Ctx) {
		ctx.Write(ch, "%d", int32(1))
	})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("err = %v", err)
	}
}

func TestSizeMismatchAborts(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	reader := a.CreateProcessOn(1, "reader", func(ctx *Ctx, index int, arg any) {
		out := make([]int32, 5)
		ctx.Read(arg.(*Channel), "%5d", out) // writer sends 10
	}, 0, nil)
	ch := a.CreateChannel(a.Main(), reader)
	reader.arg = ch
	err := a.Run(func(ctx *Ctx) {
		ctx.Write(ch, "%10d", make([]int32, 10))
	})
	if err == nil || !strings.Contains(err.Error(), "size mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestSPESizeMismatchAborts(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var ch *Channel
	prog := &SPEProgram{Name: "short", Body: func(ctx *SPECtx) {
		out := make([]int32, 5)
		ctx.Read(ch, "%5d", out)
	}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	ch = a.CreateChannel(a.Main(), spe)
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		ctx.Write(ch, "%10d", make([]int32, 10))
	})
	if err == nil || !strings.Contains(err.Error(), "size mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSPEOnlyByParent(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	ppe := a.CreateProcessOn(1, "owner", func(ctx *Ctx, index int, arg any) {}, 0, nil)
	prog := &SPEProgram{Name: "s", Body: func(*SPECtx) {}}
	spe := a.CreateSPE(prog, ppe, 0)
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil) // PI_MAIN is not the parent
	})
	if err == nil || !strings.Contains(err.Error(), "must be started by its parent") {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigPhaseEnforced(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	err := a.Run(func(ctx *Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(error).Error(), "configuration phase") {
			t.Fatalf("recover = %v", r)
		}
	}()
	a.CreateProcess("late", func(*Ctx, int, any) {}, 0, nil)
}

func TestCreateSPEOnXeonRejected(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	xeon := a.CreateProcessOn(2, "xeon", func(*Ctx, int, any) {}, 0, nil)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(error).Error(), "no SPEs") {
			t.Fatalf("recover = %v", r)
		}
	}()
	a.CreateSPE(&SPEProgram{Name: "s", Body: func(*SPECtx) {}}, xeon, 0)
}

func TestSPEReservationLimit(t *testing.T) {
	c, err := cluster.New(cluster.Spec{CellNodes: 1, CellsPerNode: 1}) // 8 SPEs
	if err != nil {
		t.Fatal(err)
	}
	a := NewApp(c, Options{})
	prog := &SPEProgram{Name: "s", Body: func(*SPECtx) {}}
	for i := 0; i < 8; i++ {
		a.CreateSPE(prog, a.Main(), i)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(error).Error(), "all are reserved") {
			t.Fatalf("recover = %v", r)
		}
	}()
	a.CreateSPE(prog, a.Main(), 8)
}

func TestLSOverflowOnHugeWrite(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var ch *Channel
	prog := &SPEProgram{Name: "hog", Body: func(ctx *SPECtx) {
		// 300 KB cannot be staged in a 256 KB local store.
		ctx.Write(ch, "%*b", 300*1024, make([]byte, 300*1024))
	}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	ch = a.CreateChannel(spe, a.Main())
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		buf := make([]byte, 300*1024)
		ctx.Read(ch, "%*b", 300*1024, buf)
	})
	if err == nil || !strings.Contains(err.Error(), "local store overflow") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlockServiceDetectsCycle(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{DeadlockDetection: true})
	peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, index int, arg any) {
		chs := arg.([]*Channel)
		var v int32
		ctx.Read(chs[0], "%d", &v) // waits for main, which waits for us
	}, 0, nil)
	toPeer := a.CreateChannel(a.Main(), peer)
	toMain := a.CreateChannel(peer, a.Main())
	peer.arg = []*Channel{toPeer} // peer waits for main to write
	err := a.Run(func(ctx *Ctx) {
		var v int32
		ctx.Read(toMain, "%d", &v) // main waits for peer: circular wait
	})
	if err == nil || !strings.Contains(err.Error(), "circular wait") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "PI_MAIN") || !strings.Contains(err.Error(), "peer") {
		t.Fatalf("diagnostic does not name the processes: %v", err)
	}
}

func TestDeadlockWithoutServiceStillDiagnosed(t *testing.T) {
	// Without -pisvc=d the sim kernel's quiescence detector still reports
	// who is stuck (the "mysterious hang" becomes an error in the model).
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, index int, arg any) {
		var v int32
		ctx.Read(arg.(*Channel), "%d", &v)
	}, 0, nil)
	chFromMain := a.CreateChannel(a.Main(), peer)
	chToMain := a.CreateChannel(peer, a.Main())
	peer.arg = chFromMain
	err := a.Run(func(ctx *Ctx) {
		var v int32
		ctx.Read(chToMain, "%d", &v)
	})
	var dl *sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v", err)
	}
}

func TestBundleBroadcastGatherSelect(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	const workers = 3
	var bcast, gather *Bundle
	var toW, fromW []*Channel
	wfn := func(ctx *Ctx, index int, arg any) {
		var seed int32
		ctx.Read(toW[index], "%d", &seed) // receive broadcast with plain Read (MPMD)
		vals := []int32{seed + int32(index), seed + int32(index)*10}
		ctx.Write(fromW[index], "%2d", vals)
	}
	var ws []*Process
	for i := 0; i < workers; i++ {
		ws = append(ws, a.CreateProcessOn(i%3, "worker", wfn, i, nil))
	}
	for i := 0; i < workers; i++ {
		toW = append(toW, a.CreateChannel(a.Main(), ws[i]))
		fromW = append(fromW, a.CreateChannel(ws[i], a.Main()))
	}
	bcast = a.CreateBundle(BundleBroadcast, toW)
	gather = a.CreateBundle(BundleGather, fromW)
	var got []int32
	err := a.Run(func(ctx *Ctx) {
		ctx.Broadcast(bcast, "%d", int32(100))
		got = make([]int32, 2*workers)
		ctx.Gather(gather, "%2d", got)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{100, 100, 101, 110, 102, 120}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gather = %v, want %v", got, want)
		}
	}
}

func TestSelectAndHasData(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	const n = 3
	var chans []*Channel
	fn := func(ctx *Ctx, index int, arg any) {
		ctx.P.Advance(sim.Time(100*(index+1)) * sim.Microsecond)
		ctx.Write(chans[index], "%d", int32(index))
	}
	var ws []*Process
	for i := 0; i < n; i++ {
		ws = append(ws, a.CreateProcessOn((i+1)%3, "w", fn, i, nil))
	}
	for i := 0; i < n; i++ {
		chans = append(chans, a.CreateChannel(ws[i], a.Main()))
	}
	sel := a.CreateBundle(BundleSelect, chans)
	err := a.Run(func(ctx *Ctx) {
		seen := map[int]bool{}
		for len(seen) < n {
			if ctx.TrySelect(sel) == -1 && len(seen) == 0 {
				// nothing ready yet at t=0: fine
			}
			i := ctx.Select(sel)
			if !ctx.HasData(chans[i]) {
				ctx.P.Fatalf("select said %d ready but HasData is false", i)
			}
			var v int32
			ctx.Read(chans[i], "%d", &v)
			if int(v) != i {
				ctx.P.Fatalf("channel %d delivered %d", i, v)
			}
			seen[i] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBundleRejectsSPEChannels(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	prog := &SPEProgram{Name: "s", Body: func(*SPECtx) {}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	ch := a.CreateChannel(spe, a.Main())
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(error).Error(), "not supported") {
			t.Fatalf("recover = %v", r)
		}
	}()
	a.CreateBundle(BundleGather, []*Channel{ch})
}

func TestDirectLocalAblationStillCorrect(t *testing.T) {
	// A1: the fast-path type 2 must deliver identical data.
	c := newTestCluster(t)
	a := NewApp(c, Options{CoPilotDirectLocal: true})
	var down, up *Channel
	prog := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		buf := make([]byte, 256)
		ctx.Read(down, "%256b", buf)
		ctx.Write(up, "%256b", buf)
	}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	down = a.CreateChannel(a.Main(), spe)
	up = a.CreateChannel(spe, a.Main())
	var got []byte
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		msg := make([]byte, 256)
		for i := range msg {
			msg[i] = byte(255 - i%256)
		}
		ctx.Write(down, "%256b", msg)
		got = make([]byte, 256)
		ctx.Read(up, "%256b", got)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(255-i%256) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestManySPEsAllBusy(t *testing.T) {
	// Keep all 16 SPEs of one blade computing in parallel, the paper's
	// "all SPEs kept busy" claim, each talking type 2 to PI_MAIN.
	c, err := cluster.New(cluster.Spec{CellNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := NewApp(c, Options{})
	const n = 16
	chans := make([]*Channel, n)
	prog := &SPEProgram{Name: "sq", Body: func(ctx *SPECtx) {
		v := int32(ctx.Arg())
		ctx.Write(chans[ctx.Arg()], "%d", v*v)
	}}
	spes := make([]*Process, n)
	for i := 0; i < n; i++ {
		spes[i] = a.CreateSPE(prog, a.Main(), i)
		chans[i] = a.CreateChannel(spes[i], a.Main())
	}
	results := make([]int32, n)
	err = a.Run(func(ctx *Ctx) {
		for i := 0; i < n; i++ {
			ctx.RunSPE(spes[i], i, nil)
		}
		for i := 0; i < n; i++ {
			ctx.Read(chans[i], "%d", &results[i])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != int32(i*i) {
			t.Fatalf("spe %d returned %d", i, r)
		}
	}
}

// PI_CreateSPE backs the reserved SPE's local store in the configuration
// phase, so the run phase's first window into it allocates nothing.
func TestCreateSPEBacksLocalStore(t *testing.T) {
	a := NewApp(newTestCluster(t), Options{})
	sp := a.CreateSPE(&SPEProgram{Name: "idle", Body: func(*SPECtx) {}}, a.Main(), 0)
	spe, err := a.Clu.Nodes[sp.nodeID].SPE(sp.speIdx)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := spe.LS.Window(0, spe.LS.Size()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(spe.LS.Size()) {
		t.Fatalf("first window after CreateSPE allocated %d bytes", got)
	}
}
