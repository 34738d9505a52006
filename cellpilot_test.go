package cellpilot

import "testing"

// TestQuickstart runs the doc-comment program end to end through the
// public facade.
func TestQuickstart(t *testing.T) {
	clu, err := NewCluster(ClusterSpec{CellNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(clu, Options{})
	var between *Channel
	var got []int32
	send := &SPEProgram{Name: "send", Body: func(ctx *SPECtx) {
		arr := make([]int32, 100)
		for i := range arr {
			arr[i] = int32(i)
		}
		ctx.Write(between, "%100d", arr)
	}}
	recv := &SPEProgram{Name: "recv", Body: func(ctx *SPECtx) {
		arr := make([]int32, 100)
		ctx.Read(between, "%*d", 100, arr)
		got = arr
	}}
	recvPPE := app.CreateProcessOn(1, "recvFunc", func(ctx *Ctx, _ int, arg any) {
		ctx.RunSPE(arg.(*Process), 0, nil)
	}, 0, nil)
	sendSPE := app.CreateSPE(send, app.Main(), 0)
	recvSPE := app.CreateSPE(recv, recvPPE, 0)
	recvPPE.SetArg(recvSPE)
	between = app.CreateChannel(sendSPE, recvSPE)
	if between.Type() != Type5 {
		t.Fatalf("type %v", between.Type())
	}
	if err := app.Run(func(ctx *Ctx) {
		ctx.RunSPE(sendSPE, 0, nil)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestPaperCluster(t *testing.T) {
	clu, err := PaperCluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(clu.Nodes) != 12 || clu.TotalSPEs() != 128 {
		t.Fatalf("paper testbed: %d nodes, %d SPEs", len(clu.Nodes), clu.TotalSPEs())
	}
	if DefaultParams().CellPilotFootprint != 10336 {
		t.Fatal("paper footprint constant wrong")
	}
}

// TestFacadeObservability drives the public tracing and stats surface.
func TestFacadeObservability(t *testing.T) {
	clu, err := NewCluster(ClusterSpec{CellNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(clu, Options{})
	rec := NewTraceRecorder(0)
	if err := app.SetTrace(rec); err != nil {
		t.Fatal(err)
	}
	var down, up *Channel
	prog := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		var v int32
		ctx.Read(down, "%d", &v)
		ctx.Write(up, "%d", v+1)
	}}
	spe := app.CreateSPE(prog, app.Main(), 0)
	down = app.CreateChannel(app.Main(), spe)
	up = app.CreateChannel(spe, app.Main())
	if err := app.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		ctx.Write(down, "%d", int32(41))
		var v int32
		ctx.Read(up, "%d", &v)
		if v != 42 {
			ctx.Abort("got %d", v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) != 4 {
		t.Fatalf("events = %d", len(rec.Events()))
	}
	st := app.Stats()
	if st.VirtualTime <= 0 || len(st.CoPilots) != 1 || len(st.SPEs) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CoPilots[0].WriteReqs != 1 || st.CoPilots[0].ReadReqs != 1 {
		t.Fatalf("copilot counters = %+v", st.CoPilots[0])
	}
}
