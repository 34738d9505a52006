package core

import (
	"errors"
	"fmt"
	"testing"

	"cellpilot/internal/sim"
)

// TestSPETryTimeoutUnhardened: an SPE-side Try* honours its own timeout
// in an App with no fault plan and no OpTimeout. A TryRead with no writer
// and a type-4 TryWrite whose reader never posts both return a timeout
// ChannelFault instead of parking forever.
func TestSPETryTimeoutUnhardened(t *testing.T) {
	const timeout = 200 * sim.Microsecond
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var down, t4 *Channel
	var readErr, writeErr error
	var readAt, writeAt sim.Time
	reader := &SPEProgram{Name: "reader", Body: func(ctx *SPECtx) {
		readErr = ctx.TryRead(down, timeout, "%d", new(int32))
		readAt = ctx.P.Now()
	}}
	writer := &SPEProgram{Name: "t4w", Body: func(ctx *SPECtx) {
		writeErr = ctx.TryWrite(t4, timeout, "%d", int32(4))
		writeAt = ctx.P.Now()
	}}
	idle := &SPEProgram{Name: "t4r", Body: func(*SPECtx) {}}
	rp := a.CreateSPE(reader, a.Main(), 0)
	wp := a.CreateSPE(writer, a.Main(), 1)
	ip := a.CreateSPE(idle, a.Main(), 2)
	down = a.CreateChannel(a.Main(), rp)
	t4 = a.CreateChannel(wp, ip)

	err := a.Run(func(ctx *Ctx) {
		for _, sp := range []*Process{rp, wp, ip} {
			ctx.RunSPE(sp, 0, nil)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, op := range []struct {
		name string
		err  error
		at   sim.Time
	}{{"TryRead", readErr, readAt}, {"TryWrite", writeErr, writeAt}} {
		var cf *ChannelFault
		if !errors.As(op.err, &cf) {
			t.Errorf("SPE %s returned %v (%T), want a *ChannelFault", op.name, op.err, op.err)
			continue
		}
		if !cf.Timeout {
			t.Errorf("SPE %s fault %+v: want Timeout=true", op.name, cf)
		}
		if op.at < timeout || op.at > 2*timeout {
			t.Errorf("SPE %s returned at %v, want shortly after its %v timeout", op.name, op.at, timeout)
		}
	}
}

// TestSPETryTimeoutLateWrite: once an SPE TryRead timeout has poisoned its
// channel in an unhardened App, a later PPE write on that channel fails
// with a ChannelFault instead of sending data no reader will ever take.
func TestSPETryTimeoutLateWrite(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var down *Channel
	var readErr error
	reader := &SPEProgram{Name: "reader", Body: func(ctx *SPECtx) {
		readErr = ctx.TryRead(down, 200*sim.Microsecond, "%d", new(int32))
	}}
	rp := a.CreateSPE(reader, a.Main(), 0)
	down = a.CreateChannel(a.Main(), rp)

	var writeErr error
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(rp, 0, nil)
		ctx.P.Advance(300 * sim.Microsecond)
		writeErr = ctx.TryWrite(down, 0, "%d", int32(7))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var cf *ChannelFault
	if !errors.As(readErr, &cf) || !cf.Timeout {
		t.Fatalf("SPE TryRead returned %v, want a timeout *ChannelFault", readErr)
	}
	if !errors.As(writeErr, &cf) {
		t.Fatalf("late PPE TryWrite returned %v (%T), want a *ChannelFault", writeErr, writeErr)
	}
}

// TestSPETryTimeoutThenRead: an SPE TryRead whose timeout expires while
// its descriptor is still being posted or decoded must leave the
// SPE↔Co-Pilot mailbox protocol in step, so the same SPE's next Read on
// another channel completes with its own payload. The timeouts swept here
// expire inside the descriptor post (stub overhead, word0, the Co-Pilot's
// poll and dispatch), in clean and in hardened Apps.
func TestSPETryTimeoutThenRead(t *testing.T) {
	for _, o := range []struct {
		name string
		opts Options
	}{{"clean", Options{}}, {"optimeout", Options{OpTimeout: 50 * sim.Millisecond}}} {
		for timeout := sim.Microsecond; timeout <= 60*sim.Microsecond; timeout += 3 * sim.Microsecond {
			t.Run(fmt.Sprint(o.name, "/", timeout), func(t *testing.T) {
				c := newTestCluster(t)
				a := NewApp(c, o.opts)
				var down, next *Channel
				var tryErr error
				var got int32
				reader := &SPEProgram{Name: "reader", Body: func(ctx *SPECtx) {
					tryErr = ctx.TryRead(down, timeout, "%d", new(int32))
					ctx.Read(next, "%d", &got)
				}}
				rp := a.CreateSPE(reader, a.Main(), 0)
				down = a.CreateChannel(a.Main(), rp)
				next = a.CreateChannel(a.Main(), rp)
				err := a.Run(func(ctx *Ctx) {
					ctx.RunSPE(rp, 0, nil)
					ctx.P.Advance(300 * sim.Microsecond)
					ctx.Write(next, "%d", int32(9))
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				var cf *ChannelFault
				if !errors.As(tryErr, &cf) || !cf.Timeout {
					t.Fatalf("TryRead returned %v, want a timeout *ChannelFault", tryErr)
				}
				if got != 9 {
					t.Fatalf("Read after the timed-out TryRead got %d, want 9", got)
				}
			})
		}
	}
}

// TestSPETryTimeoutWriteRace sweeps a PPE write across an SPE TryRead's
// timeout. Whichever side of the deadline the write lands on, the run
// completes without a panic, and it either delivers the payload once or
// reports a ChannelFault — never a silent loss. A payload that reaches the
// Co-Pilot after the stub gave up must not land in the local store the
// stub released: the SPE's next Read, whose buffer takes that address, and
// whose payload is already waiting, gets its own payload.
func TestSPETryTimeoutWriteRace(t *testing.T) {
	const timeout = 200 * sim.Microsecond
	for _, o := range []struct {
		name string
		opts Options
	}{{"clean", Options{}}, {"optimeout", Options{OpTimeout: 50 * sim.Millisecond}}} {
		for at := sim.Time(0); at <= 2*timeout; at += 10 * sim.Microsecond {
			t.Run(fmt.Sprint(o.name, "/", at), func(t *testing.T) {
				c := newTestCluster(t)
				a := NewApp(c, o.opts)
				var down, next *Channel
				var readErr error
				var got, got2 int32
				reader := &SPEProgram{Name: "reader", Body: func(ctx *SPECtx) {
					readErr = ctx.TryRead(down, timeout, "%d", &got)
					ctx.Read(next, "%d", &got2)
				}}
				rp := a.CreateSPE(reader, a.Main(), 0)
				down = a.CreateChannel(a.Main(), rp)
				next = a.CreateChannel(a.Main(), rp)

				var writeErr error
				err := a.Run(func(ctx *Ctx) {
					ctx.RunSPE(rp, 0, nil)
					ctx.Write(next, "%d", int32(43))
					ctx.P.Advance(at)
					writeErr = ctx.TryWrite(down, 0, "%d", int32(42))
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				var cf *ChannelFault
				faulted := errors.As(readErr, &cf) || errors.As(writeErr, &cf)
				delivered := readErr == nil && writeErr == nil && got == 42
				if faulted == delivered {
					t.Fatalf("read=%v write=%v got=%d: want the payload delivered once or a ChannelFault",
						readErr, writeErr, got)
				}
				if got2 != 43 {
					t.Fatalf("read=%v write=%v: the next Read got %d, want 43", readErr, writeErr, got2)
				}
			})
		}
	}
}

// TestSPETryTimeoutType4Race sweeps an SPE write across the timeout of
// its type-4 reader's TryRead in an unhardened App, with the writer
// waiting unbounded (Write) or bounded (a long TryWrite). Once the reader
// gave up, the Co-Pilot must fail the writer's request instead of
// completing or dropping it: the run never deadlocks, and the payload is
// delivered once or both sides report a ChannelFault.
func TestSPETryTimeoutType4Race(t *testing.T) {
	const timeout = 200 * sim.Microsecond
	for _, bounded := range []bool{false, true} {
		for at := sim.Time(0); at <= 2*timeout; at += 5 * sim.Microsecond {
			t.Run(fmt.Sprint("bounded=", bounded, "/", at), func(t *testing.T) {
				c := newTestCluster(t)
				a := NewApp(c, Options{})
				var t4 *Channel
				var readErr, writeErr error
				var got int32
				reader := &SPEProgram{Name: "t4r", Body: func(ctx *SPECtx) {
					readErr = ctx.TryRead(t4, timeout, "%d", &got)
				}}
				writer := &SPEProgram{Name: "t4w", Body: func(ctx *SPECtx) {
					ctx.P.Advance(at)
					if bounded {
						writeErr = ctx.TryWrite(t4, sim.Millisecond, "%d", int32(42))
					} else {
						ctx.Write(t4, "%d", int32(42))
					}
				}}
				rp := a.CreateSPE(reader, a.Main(), 0)
				wp := a.CreateSPE(writer, a.Main(), 1)
				t4 = a.CreateChannel(wp, rp)
				err := a.Run(func(ctx *Ctx) {
					ctx.RunSPE(rp, 0, nil)
					ctx.RunSPE(wp, 0, nil)
				})
				var fs *FaultSummary
				if err != nil && !errors.As(err, &fs) {
					t.Fatalf("Run: %v", err)
				}
				if fs != nil && len(fs.Faults) == 1 {
					writeErr = fs.Faults[0] // the unbounded Write unwound
				}
				var cf *ChannelFault
				switch {
				case readErr == nil && writeErr == nil:
					if got != 42 {
						t.Fatalf("delivered %d, want 42", got)
					}
				case !errors.As(readErr, &cf) || !errors.As(writeErr, &cf):
					t.Fatalf("read=%v write=%v (Run: %v): want both delivered or both a *ChannelFault", readErr, writeErr, err)
				}
			})
		}
	}
}

// TestSPETryTimeoutShedsPeer: a type-4 TryWrite whose timeout expires
// before its descriptor is posted poisons the channel while the reader's
// request waits unbounded at the Co-Pilot. In an unhardened App the
// Co-Pilot must still shed that request, so the reader's Read faults
// instead of parking forever.
func TestSPETryTimeoutShedsPeer(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var t4 *Channel
	var writeErr error
	reader := &SPEProgram{Name: "t4r", Body: func(ctx *SPECtx) {
		ctx.Read(t4, "%d", new(int32))
	}}
	writer := &SPEProgram{Name: "t4w", Body: func(ctx *SPECtx) {
		ctx.P.Advance(100 * sim.Microsecond)
		writeErr = ctx.TryWrite(t4, sim.Microsecond, "%d", int32(42))
	}}
	rp := a.CreateSPE(reader, a.Main(), 0)
	wp := a.CreateSPE(writer, a.Main(), 1)
	t4 = a.CreateChannel(wp, rp)
	err := a.Run(func(ctx *Ctx) {
		ctx.RunSPE(rp, 0, nil)
		ctx.RunSPE(wp, 0, nil)
	})
	var cf *ChannelFault
	if !errors.As(writeErr, &cf) || !cf.Timeout {
		t.Fatalf("TryWrite returned %v, want a timeout *ChannelFault", writeErr)
	}
	var fs *FaultSummary
	if !errors.As(err, &fs) || len(fs.Faults) != 1 || fs.Faults[0].API != "PI_Read" {
		t.Fatalf("Run returned %v: want the reader's PI_Read fault", err)
	}
}

// TestSPETryTimeoutBufferReuse: an SPE TryRead times out while the
// Co-Pilot is still dispatching its request, with the payload already
// waiting, and the SPE's next operation is a Write whose buffer takes
// the same local-store address. The late payload must not overwrite the
// message the SPE is sending.
func TestSPETryTimeoutBufferReuse(t *testing.T) {
	for _, o := range []struct {
		name string
		opts Options
	}{{"clean", Options{}}, {"optimeout", Options{OpTimeout: 50 * sim.Millisecond}}} {
		for timeout := sim.Microsecond; timeout <= 80*sim.Microsecond; timeout += 2 * sim.Microsecond {
			t.Run(fmt.Sprint(o.name, "/", timeout), func(t *testing.T) {
				c := newTestCluster(t)
				a := NewApp(c, o.opts)
				var down, up *Channel
				var tryErr error
				var v int32
				spe := &SPEProgram{Name: "spe", Body: func(ctx *SPECtx) {
					tryErr = ctx.TryRead(down, timeout, "%d", &v)
					ctx.Write(up, "%d", int32(77))
				}}
				sp := a.CreateSPE(spe, a.Main(), 0)
				down = a.CreateChannel(a.Main(), sp)
				up = a.CreateChannel(sp, a.Main())
				var got int32
				err := a.Run(func(ctx *Ctx) {
					ctx.Write(down, "%d", int32(42))
					ctx.RunSPE(sp, 0, nil)
					ctx.Read(up, "%d", &got)
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if tryErr == nil && v != 42 {
					t.Fatalf("TryRead delivered %d, want 42", v)
				}
				if got != 77 {
					t.Fatalf("TryRead=%v; the next Write delivered %d, want 77", tryErr, got)
				}
			})
		}
	}
}
