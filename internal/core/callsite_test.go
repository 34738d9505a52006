package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cellpilot/internal/sim"
)

// here names the call site of the line after the caller's, the way
// Pilot diagnostics print it.
func here() string {
	_, file, line, _ := runtime.Caller(1)
	return fmt.Sprintf("%s:%d", filepath.Base(file), line+1)
}

// Every diagnostic path names the user's file.go:line exactly: API misuse
// on a regular and on an SPE process, a configuration-phase panic, a
// ChannelFault's Loc, and the deadlock service's cycle report.
func TestDiagnosticsNameUserCallSite(t *testing.T) {
	t.Run("misuse", func(t *testing.T) {
		a := NewApp(newTestCluster(t), Options{})
		var loc string
		err := a.Run(func(ctx *Ctx) {
			loc = here()
			ctx.Write(nil, "%d", int32(1))
		})
		if err == nil || !strings.Contains(err.Error(), "pilot: "+loc+": PI_Write: nil channel") {
			t.Fatalf("err = %v, want the diagnostic at %s", err, loc)
		}
	})
	t.Run("spe-misuse", func(t *testing.T) {
		a := NewApp(newTestCluster(t), Options{})
		var ch *Channel
		var loc string
		spe := a.CreateSPE(&SPEProgram{Name: "thief", Body: func(ctx *SPECtx) {
			loc = here()
			ctx.Write(ch, "%d", int32(1))
		}}, a.Main(), 0)
		ch = a.CreateChannel(a.Main(), spe)
		err := a.Run(func(ctx *Ctx) {
			ctx.RunSPE(spe, 0, nil)
			ctx.Write(ch, "%d", int32(2))
		})
		if err == nil || !strings.Contains(err.Error(), "pilot: "+loc+": PI_Write:") {
			t.Fatalf("err = %v, want the diagnostic at %s", err, loc)
		}
	})
	t.Run("config", func(t *testing.T) {
		a := NewApp(newTestCluster(t), Options{})
		var loc string
		defer func() {
			r := recover()
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "pilot: "+loc+": PI_CreateSPE: nil SPE program") {
				t.Fatalf("panic = %v, want the diagnostic at %s", r, loc)
			}
		}()
		loc = here()
		a.CreateSPE(nil, a.Main(), 0)
	})
	t.Run("fault-loc", func(t *testing.T) {
		a := NewApp(newTestCluster(t), Options{})
		peer := a.CreateProcessOn(1, "peer", func(*Ctx, int, any) {}, 0, nil)
		ch := a.CreateChannel(peer, a.Main())
		var cf *ChannelFault
		var loc string
		err := a.Run(func(ctx *Ctx) {
			var v int32
			loc = here()
			terr := ctx.TryRead(ch, 100*sim.Microsecond, "%d", &v)
			if !errors.As(terr, &cf) {
				t.Errorf("TryRead error %v is not a *ChannelFault", terr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if cf == nil || cf.Loc != loc {
			t.Fatalf("fault %+v, want Loc %s", cf, loc)
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		a := NewApp(newTestCluster(t), Options{DeadlockDetection: true})
		var toPeer, toMain *Channel
		var peerLoc, mainLoc string
		peer := a.CreateProcessOn(1, "peer", func(ctx *Ctx, _ int, _ any) {
			var v int32
			peerLoc = here()
			ctx.Read(toPeer, "%d", &v)
		}, 0, nil)
		toPeer = a.CreateChannel(a.Main(), peer)
		toMain = a.CreateChannel(peer, a.Main())
		err := a.Run(func(ctx *Ctx) {
			var v int32
			mainLoc = here()
			ctx.Read(toMain, "%d", &v)
		})
		if err == nil || !strings.Contains(err.Error(), "circular wait") {
			t.Fatalf("err = %v", err)
		}
		for _, loc := range []string{peerLoc, mainLoc} {
			if !strings.Contains(err.Error(), "(at "+loc+")") {
				t.Errorf("cycle report does not name %s: %v", loc, err)
			}
		}
	})
}

// A clean round trip allocates no more than it did when every operation
// formatted its call site eagerly: capturing the site is a stack walk
// into a fixed array. The ceilings are the eager-formatting counts
// (Go 1.24, linux/amd64: 61 and 73 allocations per round trip); lazy call
// sites measure 46 and 57 (55 and 68 under -race).
//
// A hardened round trip (Options.OpTimeout) also arms and cancels a
// deadline per operation, including App.opCtl's unwatch closure. It
// measures 55 and 68 (65 and 79 under -race); its ceilings sit about 9%
// above those, so the closure cannot grow unnoticed.
func TestRoundTripAllocCeiling(t *testing.T) {
	const runs = 200
	measure := func(t *testing.T, echoSPE bool, opts Options) float64 {
		a := NewApp(newTestCluster(t), opts)
		var out, back *Channel
		if echoSPE {
			spe := a.CreateSPE(&SPEProgram{Name: "echo", Body: func(ctx *SPECtx) {
				var v int32
				for i := 0; i <= runs; i++ {
					ctx.Read(out, "%d", &v)
					ctx.Write(back, "%d", v)
				}
			}}, a.Main(), 0)
			out, back = a.CreateChannel(a.Main(), spe), a.CreateChannel(spe, a.Main())
		} else {
			peer := a.CreateProcessOn(1, "echo", func(ctx *Ctx, _ int, _ any) {
				var v int32
				for i := 0; i <= runs; i++ {
					ctx.Read(out, "%d", &v)
					ctx.Write(back, "%d", v)
				}
			}, 0, nil)
			out, back = a.CreateChannel(a.Main(), peer), a.CreateChannel(peer, a.Main())
		}
		var allocs float64
		err := a.Run(func(ctx *Ctx) {
			if echoSPE {
				ctx.RunSPE(out.To, 0, nil)
			}
			v := int32(7)
			allocs = testing.AllocsPerRun(runs, func() {
				ctx.Write(out, "%d", v)
				ctx.Read(back, "%d", &v)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocs
	}
	for _, c := range []struct {
		name    string
		echoSPE bool
		opts    Options
		ceiling float64
		race    float64 // ceiling under -race
	}{
		{"type1", false, Options{}, 61, 61},
		{"type2", true, Options{}, 73, 73},
		{"type1-hardened", false, Options{OpTimeout: sim.Second}, 60, 71},
		{"type2-hardened", true, Options{OpTimeout: sim.Second}, 74, 87},
	} {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled {
				c.ceiling = c.race
			}
			got := measure(t, c.echoSPE, c.opts)
			t.Logf("%s round trip: %.0f allocs", c.name, got)
			if got > c.ceiling {
				t.Fatalf("%s round trip allocates %.0f, ceiling %.0f", c.name, got, c.ceiling)
			}
		})
	}
}
