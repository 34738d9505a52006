// Command cellpilot-trace runs a demonstration CellPilot application with
// the communication recorder and meter attached and prints the event
// timeline, per-channel statistics and per-channel-type metrics — a view
// of what the Co-Pilot moves around during a run, at zero virtual-time
// cost (traced runs keep the calibrated timings exactly).
//
// Exporters (all optional, "-" means stdout):
//
//	cellpilot-trace -chrome out.json    # Chrome trace_event JSON (Perfetto)
//	cellpilot-trace -json out.jsonl     # event timeline as JSON lines
//	cellpilot-trace -metrics out.json   # metric registry as JSON
//	cellpilot-trace -top                # utilization: procs, channels, links
//	cellpilot-trace -timeline           # windowed telemetry sparklines
//	cellpilot-trace -flows              # traffic heatmap + top-K flow table
//
// -timeline also folds per-window counter tracks into the -chrome export,
// so Perfetto renders backlog, utilization and saturation as counter
// graphs above the span tracks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cellpilot"
	"cellpilot/internal/trace"
)

// writeOut opens path for an exporter ("-" = stdout) and runs fn on it.
func writeOut(path string, fn func(w io.Writer) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
}

func main() {
	rounds := flag.Int("rounds", 5, "pingpong rounds per channel type")
	events := flag.Int("events", 40, "timeline events to print")
	chrome := flag.String("chrome", "", "write Chrome trace_event JSON to this file (\"-\" = stdout)")
	jsonl := flag.String("json", "", "write the event timeline as JSON lines to this file (\"-\" = stdout)")
	metricsOut := flag.String("metrics", "", "write the metric registry as JSON to this file (\"-\" = stdout)")
	spans := flag.Int("spans", 10, "transfer spans to print")
	top := flag.Bool("top", false, "print the per-process / per-channel-type utilization table")
	critpathOn := flag.Bool("critpath", false, "print the critical-path blame report (per-stage service vs queueing)")
	folded := flag.String("folded", "", "with -critpath: write folded critical-path stacks to this file (\"-\" = stdout)")
	timelineOn := flag.Bool("timeline", false, "record and print the windowed telemetry timeline (sparklines, peaks, recovery)")
	timelineWindow := flag.Duration("timeline-window", 0, "with -timeline: virtual-time bucket width (0 = 100µs)")
	flowsOn := flag.Bool("flows", false, "record and print the flow observatory (node×node traffic heatmap, top-K flows, per-resource breakdown)")
	flag.Parse()

	clu, err := cellpilot.NewCluster(cellpilot.ClusterSpec{CellNodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	app := cellpilot.NewApp(clu, cellpilot.Options{})
	rec := cellpilot.NewTraceRecorder(0)
	meter := cellpilot.NewMeter()
	var tl *cellpilot.Timeline
	if *timelineOn {
		tl = cellpilot.NewTimeline(cellpilot.Time(timelineWindow.Nanoseconds()))
	}
	var flows *cellpilot.Flowmap
	if *flowsOn {
		flows = cellpilot.NewFlowmap(0)
	}
	if err := errors.Join(app.SetTrace(rec), app.SetMetrics(meter), app.SetTimeline(tl), app.SetFlows(flows)); err != nil {
		log.Fatal(err)
	}

	// One channel pair of each Table I flavour: type 1 (PPE↔remote PPE),
	// type 2 (PPE↔local SPE), type 3 (PPE↔remote SPE), type 4 (SPE↔SPE
	// same blade) and type 5 (SPE↔remote SPE).
	var t1down, t1up, t2down, t2up, t3down, t3up, t4ab, t4ba, t5ab, t5ba *cellpilot.Channel
	n := *rounds
	mkEcho := func(down, up **cellpilot.Channel) *cellpilot.SPEProgram {
		return &cellpilot.SPEProgram{Name: "echo", Body: func(ctx *cellpilot.SPECtx) {
			buf := make([]int32, 32)
			for r := 0; r < n; r++ {
				ctx.Read(*down, "%32d", buf)
				ctx.Write(*up, "%32d", buf)
			}
		}}
	}
	mkInit := func(up, down **cellpilot.Channel) *cellpilot.SPEProgram {
		return &cellpilot.SPEProgram{Name: "init", Body: func(ctx *cellpilot.SPECtx) {
			buf := make([]int32, 32)
			for r := 0; r < n; r++ {
				ctx.Write(*up, "%32d", buf)
				ctx.Read(*down, "%32d", buf)
			}
		}}
	}

	spe2 := app.CreateSPE(mkEcho(&t2down, &t2up), app.Main(), 0)
	spe4a := app.CreateSPE(mkInit(&t4ab, &t4ba), app.Main(), 1)
	spe4b := app.CreateSPE(mkEcho(&t4ab, &t4ba), app.Main(), 2)
	parent := app.CreateProcessOn(1, "parent", func(ctx *cellpilot.Ctx, _ int, arg any) {
		procs := arg.([]*cellpilot.Process)
		for _, sp := range procs {
			ctx.RunSPE(sp, 0, nil)
		}
		buf := make([]int32, 32)
		for r := 0; r < n; r++ {
			ctx.Read(t1down, "%32d", buf)
			ctx.Write(t1up, "%32d", buf)
		}
	}, 0, nil)
	spe5a := app.CreateSPE(mkInit(&t5ab, &t5ba), app.Main(), 3)
	spe5b := app.CreateSPE(mkEcho(&t5ab, &t5ba), parent, 0)
	spe3 := app.CreateSPE(mkEcho(&t3down, &t3up), parent, 1)
	parent.SetArg([]*cellpilot.Process{spe5b, spe3})

	t1down = app.CreateChannel(app.Main(), parent)
	t1up = app.CreateChannel(parent, app.Main())
	t2down = app.CreateChannel(app.Main(), spe2)
	t2up = app.CreateChannel(spe2, app.Main())
	t3down = app.CreateChannel(app.Main(), spe3)
	t3up = app.CreateChannel(spe3, app.Main())
	t4ab = app.CreateChannel(spe4a, spe4b)
	t4ba = app.CreateChannel(spe4b, spe4a)
	t5ab = app.CreateChannel(spe5a, spe5b)
	t5ba = app.CreateChannel(spe5b, spe5a)
	all := []*cellpilot.Channel{t1down, t1up, t2down, t2up, t3down, t3up, t4ab, t4ba, t5ab, t5ba}
	for _, ch := range all {
		ch.SetName(fmt.Sprintf("%s/%d", ch.Type(), ch.ID()))
	}

	err = app.Run(func(ctx *cellpilot.Ctx) {
		ctx.RunSPE(spe2, 0, nil)
		ctx.RunSPE(spe4a, 0, nil)
		ctx.RunSPE(spe4b, 0, nil)
		ctx.RunSPE(spe5a, 0, nil)
		buf := make([]int32, 32)
		for r := 0; r < n; r++ {
			ctx.Write(t1down, "%32d", buf)
			ctx.Read(t1up, "%32d", buf)
			ctx.Write(t2down, "%32d", buf)
			ctx.Read(t2up, "%32d", buf)
			ctx.Write(t3down, "%32d", buf)
			ctx.Read(t3up, "%32d", buf)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	if tl != nil {
		// Fold the timeline's window samples into the Chrome export as
		// counter tracks; the recorder renders them as ph:"C" events.
		var pts []trace.CounterPoint
		for _, p := range tl.Points() {
			pts = append(pts, trace.CounterPoint{At: p.At, Name: p.Series, Value: p.Value})
		}
		rec.SetCounters(pts)
	}
	if *chrome != "" {
		writeOut(*chrome, rec.WriteChrome)
		if *chrome != "-" {
			fmt.Printf("chrome trace written to %s (load in Perfetto or chrome://tracing)\n", *chrome)
		}
	}
	if *jsonl != "" {
		writeOut(*jsonl, rec.WriteJSONL)
		if *jsonl != "-" {
			fmt.Printf("event timeline written to %s\n", *jsonl)
		}
	}
	if *metricsOut != "" {
		writeOut(*metricsOut, func(w io.Writer) error {
			data, err := meter.Registry().MarshalJSON()
			if err != nil {
				return err
			}
			_, err = w.Write(append(data, '\n'))
			return err
		})
		if *metricsOut != "-" {
			fmt.Printf("metrics written to %s\n", *metricsOut)
		}
	}

	fmt.Printf("timeline (first %d of %d events):\n", *events, len(rec.Events()))
	for i, ev := range rec.Events() {
		if i >= *events {
			break
		}
		fmt.Printf("  [%12s] %-7s ch=%-3d %5dB  %s\n", ev.At, ev.Kind, ev.Channel, ev.Bytes, ev.Proc)
	}
	fmt.Println()
	allSpans := rec.Spans()
	fmt.Printf("transfer spans (first %d of %d):\n", *spans, len(allSpans))
	for i, sp := range allSpans {
		if i >= *spans {
			break
		}
		fmt.Printf("  #%-4d ch=%-3d type%d %5dB %10s:", sp.ID, sp.Channel, sp.ChanType, sp.Bytes, sp.Dur())
		for _, ph := range sp.Phases {
			fmt.Printf(" %s=%s", ph.Phase, ph.Dur())
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Print(rec.Summary())
	fmt.Println()
	st := app.Stats()
	fmt.Print(st)
	if st.Timeline != nil {
		fmt.Println()
		fmt.Print(st.Timeline.String())
	}
	if st.Flows != nil {
		fmt.Println()
		fmt.Print(st.Flows.String())
	}
	if *top {
		fmt.Println()
		printTop(st)
	}
	if *critpathOn && st.CritPath != nil {
		fmt.Println()
		fmt.Print(st.CritPath.Table())
		if *folded != "" {
			writeOut(*folded, st.CritPath.FoldedStacks)
			if *folded != "-" {
				fmt.Printf("folded critical-path stacks written to %s\n", *folded)
			}
		}
	}
}

// printTop renders the utilization view: where each process's virtual
// lifetime went, how loaded each channel type, Co-Pilot and interconnect
// link ran.
func printTop(st cellpilot.Stats) {
	pct := func(part, total cellpilot.Time) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	fmt.Println("top: per-process virtual-time utilization")
	fmt.Printf("  %-28s %12s %8s %8s %8s %8s\n", "process", "lifetime", "compute", "read", "write", "mbox")
	for _, pt := range st.ProcTimes {
		fmt.Printf("  %-28s %12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			pt.Process, pt.Total,
			pct(pt.Compute, pt.Total), pct(pt.BlockedRead, pt.Total),
			pct(pt.BlockedWrite, pt.Total), pct(pt.MailboxWait, pt.Total))
	}
	fmt.Println("top: per-channel-type load")
	fmt.Printf("  %-6s %8s %10s %12s %12s %14s %8s\n",
		"type", "ops", "bytes", "p50 lat", "p99 lat", "p50 bw", "backlog")
	for _, ct := range st.ChannelTypes {
		bw := "-"
		if ct.BandwidthMBps != nil && ct.BandwidthMBps.Count() > 0 {
			bw = fmt.Sprintf("%.1fMB/s", ct.BandwidthMBps.Quantile(0.5))
		}
		fmt.Printf("  %-6s %8d %10d %10.1fus %10.1fus %14s %8d\n",
			ct.Type, ct.Ops, ct.Bytes,
			ct.LatencyUs.Quantile(0.5), ct.LatencyUs.Quantile(0.99), bw, ct.BacklogHighWater)
	}
	fmt.Println("top: co-pilot service loops")
	for _, cp := range st.CoPilots {
		fmt.Printf("  copilot@node%-2d busy %12s  %5.1f%% utilized  (%d reqs)\n",
			cp.Node, cp.Busy, 100*cp.Utilization, cp.WriteReqs+cp.ReadReqs)
	}
	fmt.Println("top: interconnect links")
	for _, lu := range st.Links {
		fmt.Printf("  %-6s busy %12s  %5.1f%% saturated\n", lu.Name, lu.Busy, 100*lu.Utilization)
	}
	fmt.Println("top: SPE mailbox high-water marks and MFC DMA engines")
	for _, spe := range st.SPEs {
		fmt.Printf("  %-28s in=%d/4 out=%d/1  mfc-dma busy %12s  %5.1f%% utilized\n",
			spe.Process, spe.InMboxHighWater, spe.OutMboxHighWater, spe.DMABusy, 100*spe.DMAUtilization)
	}
}
