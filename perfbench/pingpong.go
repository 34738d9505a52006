package main

import (
	"fmt"
	"runtime"
	"time"

	"cellpilot"
	"cellpilot/internal/sim"
)

// cell is one pingpong program: a Table II cell (channel type and payload
// size) run with the CellPilot method on a fresh 2-Cell + 1-Xeon cluster.
// It is the facade-level twin of workload.PingPong's CellPilot arm — same
// cluster, same processes and channels created in the same order — split
// so that cluster build, App configuration and App.Run are timed apart.
type cell struct {
	typ, bytes, reps int
	// clusterSeed feeds the cluster kernel (workload.PingPong uses 7).
	clusterSeed int64
	// salt perturbs every payload element; it changes the bytes carried,
	// never the virtual timeline.
	salt byte
	// corruptRound, when >= 0, makes the echo side flip one payload byte
	// in that round, so the initiator's verification must catch it.
	corruptRound int
	// observe, when non-nil, attaches an observer to the App during
	// configuration; probe, when non-nil, is installed on the kernel.
	observe func(*cellpilot.App) error
	probe   sim.HostProbe
	// bytesV reads the allocation counter around NewCluster (each read
	// stops the world briefly).
	bytesV bool
	// beforeRun, when non-nil, runs between configuration and App.Run,
	// outside both timed phases.
	beforeRun func()
}

// cellRun is what one cell run observed.
type cellRun struct {
	build, configure, run time.Duration
	buildBytes            uint64
	// total is the timed window's virtual duration (reps round trips);
	// rtts are the raw round-trip samples behind the exact quantiles.
	total          sim.Time
	rtts           []sim.Time
	checks, failed int
	stats          cellpilot.Stats
}

// oneWay is the mean one-way latency, as workload.PingPong reports it.
func (r cellRun) oneWay(reps int) sim.Time { return r.total / sim.Time(2*reps) }

// payload mirrors workload.PingPong's encodings: "%b" for one byte,
// "%nLf" for multiples of 16 bytes, a byte array otherwise. Every value is
// derived from the round number and the salt, so the initiator can check
// the echo element by element.
type payload struct {
	format string
	mk     func(round int) []any
	// recv returns fresh read targets and a verifier for them.
	recv func() ([]any, func(round int) bool)
	// flip corrupts one element of a received payload in place.
	flip func(args []any)
}

func newPayload(bytes int, salt byte) payload {
	switch {
	case bytes == 1:
		return payload{
			format: "%b",
			mk:     func(r int) []any { return []any{[]byte{byte(r) ^ salt}} },
			recv: func() ([]any, func(int) bool) {
				v := make([]byte, 1)
				return []any{v}, func(r int) bool { return v[0] == byte(r)^salt }
			},
			flip: func(args []any) { args[0].([]byte)[0] ^= 0xff },
		}
	case bytes%16 == 0:
		n := bytes / 16
		s := float64(salt)
		return payload{
			format: fmt.Sprintf("%%%dLf", n),
			mk: func(r int) []any {
				arr := make([]cellpilot.LongDouble, n)
				for i := range arr {
					arr[i] = cellpilot.LongDouble{Hi: float64(r) + s, Lo: float64(i)}
				}
				return []any{arr}
			},
			recv: func() ([]any, func(int) bool) {
				arr := make([]cellpilot.LongDouble, n)
				return []any{arr}, func(r int) bool {
					for i := range arr {
						if arr[i].Hi != float64(r)+s || arr[i].Lo != float64(i) {
							return false
						}
					}
					return true
				}
			},
			flip: func(args []any) { args[0].([]cellpilot.LongDouble)[0].Lo++ },
		}
	default:
		return payload{
			format: fmt.Sprintf("%%%db", bytes),
			mk: func(r int) []any {
				arr := make([]byte, bytes)
				for i := range arr {
					arr[i] = byte(r+i) ^ salt
				}
				return []any{arr}
			},
			recv: func() ([]any, func(int) bool) {
				arr := make([]byte, bytes)
				return []any{arr}, func(r int) bool {
					for i := range arr {
						if arr[i] != byte(r+i)^salt {
							return false
						}
					}
					return true
				}
			},
			flip: func(args []any) { args[0].([]byte)[0] ^= 0xff },
		}
	}
}

// allocated reads the process-wide allocation counter; it stops the world
// briefly.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// do builds the cluster, configures the App and runs it.
func (c cell) do() (cellRun, error) {
	var out cellRun
	var b0 uint64
	if c.bytesV {
		b0 = allocated()
	}
	t0 := time.Now()
	clu, err := cellpilot.NewCluster(cellpilot.ClusterSpec{CellNodes: 2, XeonNodes: 1, Seed: c.clusterSeed})
	out.build = time.Since(t0)
	if c.bytesV {
		out.buildBytes = allocated() - b0
	}
	if err != nil {
		return out, fmt.Errorf("type %d: build cluster: %w", c.typ, err)
	}

	t1 := time.Now()
	app := cellpilot.NewApp(clu, cellpilot.Options{})
	if c.observe != nil {
		if err := c.observe(app); err != nil {
			return out, fmt.Errorf("attach observer: %w", err)
		}
	}
	if c.probe != nil {
		clu.K.SetHostProbe(c.probe)
	}
	main := c.configure(app, &out)
	out.configure = time.Since(t1)

	if c.beforeRun != nil {
		c.beforeRun()
	}
	t2 := time.Now()
	err = app.Run(main)
	out.run = time.Since(t2)
	if err != nil {
		return out, fmt.Errorf("type %d bytes %d: run: %w", c.typ, c.bytes, err)
	}
	out.stats = app.Stats()
	return out, nil
}

// configure creates the processes and channels of channel type c.typ and
// returns the PI_MAIN body.
func (c cell) configure(app *cellpilot.App, out *cellRun) func(*cellpilot.Ctx) {
	pl := newPayload(c.bytes, c.salt)
	rounds := c.reps + 1 // one warmup round before the timed window
	out.rtts = make([]sim.Time, 0, c.reps)
	var ab, ba *cellpilot.Channel

	type rw struct {
		write func(args ...any)
		read  func(args ...any)
	}
	initiator := func(io rw, now func() sim.Time) {
		var start sim.Time
		for r := 0; r < rounds; r++ {
			if r == 1 {
				start = now()
			}
			rstart := now()
			io.write(pl.mk(r)...)
			args, ok := pl.recv()
			io.read(args...)
			out.checks++
			if !ok(r) {
				out.failed++
			}
			if r >= 1 {
				out.rtts = append(out.rtts, now()-rstart)
			}
		}
		out.total = now() - start
	}
	echo := func(io rw) {
		for r := 0; r < rounds; r++ {
			args, _ := pl.recv()
			io.read(args...)
			if r == c.corruptRound {
				pl.flip(args)
			}
			io.write(args...)
		}
	}
	ppe := func(ctx *cellpilot.Ctx, w, r **cellpilot.Channel) rw {
		return rw{
			write: func(as ...any) { ctx.Write(*w, pl.format, as...) },
			read:  func(as ...any) { ctx.Read(*r, pl.format, as...) },
		}
	}
	spe := func(ctx *cellpilot.SPECtx, w, r **cellpilot.Channel) rw {
		return rw{
			write: func(as ...any) { ctx.Write(*w, pl.format, as...) },
			read:  func(as ...any) { ctx.Read(*r, pl.format, as...) },
		}
	}
	speEcho := &cellpilot.SPEProgram{Name: "pp_echo", Body: func(ctx *cellpilot.SPECtx) {
		echo(spe(ctx, &ba, &ab))
	}}
	speInit := &cellpilot.SPEProgram{Name: "pp_init", Body: func(ctx *cellpilot.SPECtx) {
		initiator(spe(ctx, &ab, &ba), ctx.P.Now)
	}}

	switch c.typ {
	case 1: // PPE (cell0) <-> PPE (cell1)
		b := app.CreateProcessOn(1, "pp_b", func(ctx *cellpilot.Ctx, _ int, _ any) {
			echo(ppe(ctx, &ba, &ab))
		}, 0, nil)
		ab = app.CreateChannel(app.Main(), b)
		ba = app.CreateChannel(b, app.Main())
		return func(ctx *cellpilot.Ctx) { initiator(ppe(ctx, &ab, &ba), ctx.P.Now) }
	case 2: // PPE (cell0) <-> local SPE
		s := app.CreateSPE(speEcho, app.Main(), 0)
		ab = app.CreateChannel(app.Main(), s)
		ba = app.CreateChannel(s, app.Main())
		return func(ctx *cellpilot.Ctx) {
			ctx.RunSPE(s, 0, nil)
			initiator(ppe(ctx, &ab, &ba), ctx.P.Now)
		}
	case 3: // PPE (cell1) <-> remote SPE (cell0)
		s := app.CreateSPE(speEcho, app.Main(), 0)
		b := app.CreateProcessOn(1, "pp_a", func(ctx *cellpilot.Ctx, _ int, _ any) {
			initiator(ppe(ctx, &ab, &ba), ctx.P.Now)
		}, 0, nil)
		ab = app.CreateChannel(b, s)
		ba = app.CreateChannel(s, b)
		return func(ctx *cellpilot.Ctx) { ctx.RunSPE(s, 0, nil) }
	case 4: // SPE <-> SPE, same Cell node
		s1 := app.CreateSPE(speInit, app.Main(), 0)
		s2 := app.CreateSPE(speEcho, app.Main(), 1)
		ab = app.CreateChannel(s1, s2)
		ba = app.CreateChannel(s2, s1)
		return func(ctx *cellpilot.Ctx) {
			ctx.RunSPE(s1, 0, nil)
			ctx.RunSPE(s2, 0, nil)
		}
	default: // 5: SPE (cell0) <-> SPE (cell1)
		b := app.CreateProcessOn(1, "pp_parent", func(ctx *cellpilot.Ctx, _ int, arg any) {
			ctx.RunSPE(arg.(*cellpilot.Process), 0, nil)
		}, 0, nil)
		s1 := app.CreateSPE(speInit, app.Main(), 0)
		s2 := app.CreateSPE(speEcho, b, 0)
		b.SetArg(s2)
		ab = app.CreateChannel(s1, s2)
		ba = app.CreateChannel(s2, s1)
		return func(ctx *cellpilot.Ctx) { ctx.RunSPE(s1, 0, nil) }
	}
}
