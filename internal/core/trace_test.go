package core

import (
	"testing"

	"cellpilot/internal/trace"
)

func TestTraceRecordsChannelOps(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	rec := trace.NewRecorder(0)
	if err := a.SetTrace(rec); err != nil {
		t.Fatal(err)
	}
	var down, up *Channel
	prog := &SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
		buf := make([]byte, 64)
		for i := 0; i < 3; i++ {
			ctx.Read(down, "%64b", buf)
			ctx.Write(up, "%64b", buf)
		}
	}}
	spe := a.CreateSPE(prog, a.Main(), 0)
	down = a.CreateChannel(a.Main(), spe)
	up = a.CreateChannel(spe, a.Main())
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(spe, 0, nil)
		buf := make([]byte, 64)
		for i := 0; i < 3; i++ {
			ctx.Write(down, "%64b", buf)
			ctx.Read(up, "%64b", buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.ByChannel()
	if len(stats) != 2 {
		t.Fatalf("channels traced = %d", len(stats))
	}
	for _, st := range stats {
		if st.Writes != 3 || st.Reads != 3 || st.Bytes != 3*64 {
			t.Fatalf("channel %d stats = %+v", st.Channel, st)
		}
	}
}

func TestTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(withTrace bool) Time {
		c := newTestCluster(t)
		a := NewApp(c, Options{})
		if withTrace {
			if err := a.SetTrace(trace.NewRecorder(0)); err != nil {
				t.Fatal(err)
			}
		}
		peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, arg any) {
			var v int32
			ctx.Read(arg.(*Channel), "%d", &v)
		}, 0, nil)
		ch := a.CreateChannel(a.Main(), peer)
		peer.arg = ch
		if err := a.Run(func(ctx *Ctx) { ctx.Write(ch, "%d", int32(1)) }); err != nil {
			t.Fatal(err)
		}
		return Time(c.K.Now())
	}
	if run(false) != run(true) {
		t.Fatal("tracing changed the virtual timeline")
	}
}

// Time aliases sim.Time for the helper above without another import.
type Time int64
