package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"cellpilot"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// layerMetrics are the metrics a traced run reports. The prefix is the
// module the number belongs to.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		// Exact kernel counts from the benchmark's own sim.HostProbe.
		{"sim.events", "count"},
		{"sim.proc_slices", "count"},
		{"sim.callback_slices", "count"},
		{"sim.queue_ops", "count"},
		{"sim.cancel_purged", "count"},
		{"sim.max_queue_depth", "count"},
		// Kernel events over the run phase's wall time.
		{"sim.events_per_s", "1/s"},
		// Calibrated kernel costs and the share of run time they explain.
		{"sim.switch_ns", "ns"},
		{"sim.dispatch_ns", "ns"},
		{"sim.switch_share", "frac"},
		{"sim.parallel_speedup", "x"},
		// hostprof subsystem shares, sampling every slice.
		{"sim.kernel.host_share", "frac"},
		{"user.host_share", "frac"},
		{"core.copilot.host_share", "frac"},
		{"mpi.host_share", "frac"},
		{"interconnect.host_share", "frac"},
		{"fmtmsg.host_share", "frac"},
		// Setup layers.
		{"cluster.build_s", "s"},
		{"cluster.build_mb", "MB"},
		{"core.configure_s", "s"},
		// Work counts from App.Stats.
		{"core.copilot.requests", "count"},
		{"core.copilot.relayed_mb", "MB"},
		{"core.copilot.type4_mb", "MB"},
		{"interconnect.messages", "count"},
		{"interconnect.mb", "MB"},
		// Reliability reactions and injected faults (scenario chaos runs).
		{"mpi.retransmits", "count"},
		{"mpi.dup_frames", "count"},
		{"fault.link_drops", "count"},
		{"fault.link_corrupts", "count"},
		{"fault.mailbox_drops", "count"},
		{"fault.mailbox_reposts", "count"},
		{"fault.op_timeouts", "count"},
		{"fault.procs_killed", "count"},
		// Calibrated format-engine costs for the workload's payloads.
		{"fmtmsg.pack_ns", "ns"},
		{"fmtmsg.unpack_ns", "ns"},
		// Go runtime, per pass.
		{"go.gc_cycles", "count"},
		{"go.gc_pause_s", "s"},
		{"go.gc_cpu_s", "s"},
		{"go.peak_rss_mb", "MB"},
		{"go.gc_cpu_s.seq", "s"},
		{"go.gc_cpu_s.par", "s"},
		// What setup_s and run_s leave of wall_s.
		{"layers.residual_frac", "frac"},
	}
	for _, o := range observers {
		ms = append(ms, metricDef{o + ".overhead_frac", "frac"}, metricDef{o + ".overhead_iqr", "frac"})
	}
	for _, c := range gridCells {
		key := fmt.Sprintf("virtual.t%d.b%d.oneway_", c.typ, c.bytes)
		ms = append(ms, metricDef{key + "p50_us", "us"}, metricDef{key + "p99_us", "us"})
	}
	return ms
}()

// countProbe is the benchmark's own kernel probe: exact counts only, no
// clock reads.
type countProbe struct {
	events, procSlices, cbSlices, pushes, pops, purged uint64
	maxDepth                                           int
}

func (p *countProbe) Event() { p.events++ }
func (p *countProbe) HeapPush(depth int) {
	p.pushes++
	p.maxDepth = max(p.maxDepth, depth)
}
func (p *countProbe) HeapPop()     { p.pops++ }
func (p *countProbe) CancelPurge() { p.purged++ }
func (p *countProbe) SliceStart(proc int) {
	if proc < 0 {
		p.cbSlices++
	} else {
		p.procSlices++
	}
}
func (p *countProbe) SliceEnd(int) {}

var _ sim.HostProbe = (*countProbe)(nil)

func (p *countProbe) add(o *countProbe) {
	p.events += o.events
	p.procSlices += o.procSlices
	p.cbSlices += o.cbSlices
	p.pushes += o.pushes
	p.pops += o.pops
	p.purged += o.purged
	p.maxDepth = max(p.maxDepth, o.maxDepth)
}

// report sets the kernel counts and the rates derived from them: events
// over run_s (the run phase's wall time with workers in parallel), and
// the share of the workers' run time the calibrated switch cost switchNs
// explains.
func (p *countProbe) report(r *report, runS float64, workers int, switchNs float64) {
	r.set("sim.events", float64(p.events))
	r.set("sim.proc_slices", float64(p.procSlices))
	r.set("sim.callback_slices", float64(p.cbSlices))
	r.set("sim.queue_ops", float64(p.pushes+p.pops))
	r.set("sim.cancel_purged", float64(p.purged))
	r.set("sim.max_queue_depth", float64(p.maxDepth))
	r.set("sim.events_per_s", float64(p.events)/runS)
	r.set("sim.switch_share", float64(p.procSlices)*switchNs/1e9/(runS*float64(workers)))
}

// workCounts sums the App.Stats work counters over several runs.
type workCounts struct {
	requests            int
	relayed, type4, net int64
	messages            int
}

func (w *workCounts) addStats(st cellpilot.Stats) {
	for _, cp := range st.CoPilots {
		w.requests += cp.WriteReqs + cp.ReadReqs
		w.relayed += cp.RelayedBytes
		w.type4 += cp.Type4Bytes
	}
	w.messages += st.NetworkMessages
	w.net += st.NetworkBytes
}

func (w workCounts) report(r *report) {
	r.set("core.copilot.requests", float64(w.requests))
	r.set("core.copilot.relayed_mb", float64(w.relayed)/1e6)
	r.set("core.copilot.type4_mb", float64(w.type4)/1e6)
	r.set("interconnect.messages", float64(w.messages))
	r.set("interconnect.mb", float64(w.net)/1e6)
}

// reportShares maps hostprof's buckets onto the layer names.
func reportShares(r *report, s hostprof.Snapshot) {
	names := map[string]string{
		"kernel":       "sim.kernel.host_share",
		"user":         "user.host_share",
		"copilot":      "core.copilot.host_share",
		"mpi":          "mpi.host_share",
		"interconnect": "interconnect.host_share",
		"fmtmsg":       "fmtmsg.host_share",
	}
	for _, n := range names {
		r.set(n, 0)
	}
	for _, sh := range s.Subsystems {
		if n, ok := names[sh.Name]; ok {
			r.set(n, sh.Share)
		}
	}
}

// gcSample is a reading of the Go runtime's collector counters.
type gcSample struct {
	cycles  uint32
	pauseNs uint64
	cpuS    float64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	g := gcSample{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpuS = s[0].Value.Float64()
	}
	return g
}

func (g gcSample) since(o gcSample) gcSample {
	return gcSample{cycles: g.cycles - o.cycles, pauseNs: g.pauseNs - o.pauseNs, cpuS: g.cpuS - o.cpuS}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return notObserved
	}
	return float64(ru.Maxrss) / 1e3 // Linux reports KiB
}

// passMedians are the medians of a traced run's bare passes.
type passMedians struct{ wall, setup, run float64 }

// tracedPasses runs n uninstrumented passes of the workload and reports
// the residual of the layer split, the collector's work per pass and the
// peak RSS.
func tracedPasses(pass func(int64) (passTimes, error), seed int64, n int, r *report) (passMedians, error) {
	var wall, setup, run, cycles, pause, gcCPU []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		g0 := readGC()
		t0 := time.Now()
		p, err := pass(seed)
		d := time.Since(t0)
		if err != nil {
			return passMedians{}, err
		}
		g := readGC().since(g0)
		r.absorb(p.checks, p.failed)
		wall = append(wall, d.Seconds())
		setup = append(setup, p.setup.Seconds())
		run = append(run, p.run.Seconds())
		cycles = append(cycles, float64(g.cycles))
		pause = append(pause, float64(g.pauseNs)/1e9)
		gcCPU = append(gcCPU, g.cpuS)
	}
	m := passMedians{wall: median(wall), setup: median(setup), run: median(run)}
	r.set("layers.residual_frac", 1-(m.setup+m.run)/m.wall)
	r.set("go.gc_cycles", median(cycles))
	r.set("go.gc_pause_s", median(pause))
	r.set("go.gc_cpu_s", median(gcCPU))
	r.set("go.peak_rss_mb", peakRSSMB())
	r.note("layers: wall_s %.4f = setup_s %.4f + run_s %.4f + residual %.4f (medians of %d bare passes)",
		m.wall, m.setup, m.run, m.wall-m.setup-m.run, n)
	return m, nil
}

// calibrationReps is how often each calibration repeats; the median is
// reported.
const calibrationReps = 5

// calibrate measures the kernel's per-event costs on a bare kernel and
// the format engine's cost for the workload's payload sizes.
func calibrate(r *report, payloadBytes []int) {
	var adv, disp []float64
	for i := 0; i < calibrationReps; i++ {
		adv = append(adv, advanceNs(100_000))
		disp = append(disp, dispatchNs(100_000))
	}
	d := median(disp)
	r.set("sim.dispatch_ns", d)
	// An Advance is one dispatched wake event plus the park/resume pair.
	r.set("sim.switch_ns", median(adv)-d)

	var pack, unpack []float64
	for i := 0; i < calibrationReps; i++ {
		var p, u float64
		for _, b := range payloadBytes {
			pn, un := fmtNs(b, min(max((4<<20)/b, 500), 50_000))
			p += pn
			u += un
		}
		pack = append(pack, p/float64(len(payloadBytes)))
		unpack = append(unpack, u/float64(len(payloadBytes)))
	}
	r.set("fmtmsg.pack_ns", median(pack))
	r.set("fmtmsg.unpack_ns", median(unpack))
}

// advanceNs times n Advance calls of one proc: each parks the proc on a
// wake event and resumes it.
func advanceNs(n int) float64 {
	k := sim.NewKernel(1)
	k.Spawn("tick", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(sim.Nanosecond)
		}
	})
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err) // a bare kernel with one proc cannot fail
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// dispatchNs times a chain of n callback events, each scheduling the next.
func dispatchNs(n int) float64 {
	k := sim.NewKernel(1)
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			k.After(sim.Nanosecond, tick)
		}
	}
	k.After(sim.Nanosecond, tick)
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// fmtNs times packing and unpacking one payload of the given size in the
// format the pingpong program uses for it.
func fmtNs(bytes, n int) (packNs, unpackNs float64) {
	pl := newPayload(bytes, 0)
	spec := fmtmsg.MustParse(pl.format)
	args := pl.mk(1)
	into, _ := pl.recv()
	buf := make([]byte, 0, bytes+16)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if buf, err = spec.PackInto(buf[:0], args...); err != nil {
			panic(err) // the format and arguments are the benchmark's own
		}
	}
	packNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := spec.UnpackFrom(buf, into...); err != nil {
			panic(err)
		}
	}
	unpackNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return packNs, unpackNs
}

// observers are the observability hooks whose host cost is measured, each
// attached alone, named by their metric prefix.
var observers = []string{"hostprof", "sink.trace", "sink.meter", "sink.profile", "sink.timeline", "sink.flowmap"}

// attachObserver returns the configuration hook attaching a fresh
// instance of the named observer.
func attachObserver(name string) func(*cellpilot.App) error {
	return func(a *cellpilot.App) error {
		switch name {
		case "hostprof":
			return a.SetHostProf(hostprof.New(0))
		case "sink.trace":
			return a.SetTrace(cellpilot.NewTraceRecorder(0))
		case "sink.meter":
			return a.SetMetrics(cellpilot.NewMeter())
		case "sink.profile":
			return a.SetProfile(cellpilot.NewProfiler())
		case "sink.timeline":
			return a.SetTimeline(cellpilot.NewTimeline(0))
		default:
			return a.SetFlows(cellpilot.NewFlowmap(0))
		}
	}
}

// hostProfiled returns a configuration hook attaching p.
func hostProfiled(p *hostprof.Profiler) func(*cellpilot.App) error {
	return func(a *cellpilot.App) error { return a.SetHostProf(p) }
}

// overheadCell is the cell the observability overheads are measured on:
// type 5 (SPE to remote SPE) crosses every layer a sink hooks.
var overheadCell = cell{typ: 5, bytes: 1600, reps: gridReps, clusterSeed: gridClusterSeed, corruptRound: -1}

// minOverheadRounds is the fewest alternating rounds the overhead
// measurement makes, however long they take.
const minOverheadRounds = 5

// overheads measures each observer's host cost: the run phase of the
// overhead cell with the observer attached alone against a bare run, in
// pairs whose order alternates, until budget is spent. The median of the
// per-pair ratios and their interquartile spread are reported.
func overheads(seed int64, budget time.Duration, r *report) error {
	_, salt := gridInputs(seed)
	ratios := make(map[string][]float64, len(observers))
	runOnce := func(observe func(*cellpilot.App) error) (time.Duration, error) {
		c := overheadCell
		c.salt = salt
		c.observe = observe
		c.beforeRun = runtime.GC
		out, err := c.do()
		r.absorb(out.checks, out.failed)
		return out.run, err
	}
	start := time.Now()
	for round := 0; round < minOverheadRounds || time.Since(start) < budget; round++ {
		for _, n := range observers {
			var bare, with time.Duration
			var err1, err2 error
			if round%2 == 0 {
				bare, err1 = runOnce(nil)
				with, err2 = runOnce(attachObserver(n))
			} else {
				with, err2 = runOnce(attachObserver(n))
				bare, err1 = runOnce(nil)
			}
			if err1 != nil || err2 != nil {
				return fmt.Errorf("overhead of %s: %v %v", n, err1, err2)
			}
			ratios[n] = append(ratios[n], with.Seconds()/bare.Seconds()-1)
		}
	}
	for _, n := range observers {
		q1, q3 := quartiles(ratios[n])
		r.set(n+".overhead_frac", median(ratios[n]))
		r.set(n+".overhead_iqr", q3-q1)
	}
	r.note("observer overheads: run phase of the type-5 1600 B cell, %d alternating pairs each", len(ratios["hostprof"]))
	return nil
}
