package core

import (
	"fmt"

	"cellpilot/internal/flowmap"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/metrics"
	"cellpilot/internal/profile"
	"cellpilot/internal/sim"
	"cellpilot/internal/timeline"
	"cellpilot/internal/trace"
)

// This file is the core side of the observability subsystem: per-transfer
// ids correlating the stages of a channel operation into trace spans, and
// the Meter aggregating latency/bandwidth histograms and per-process
// blocked-time attribution. Everything here is host-side bookkeeping — no
// call in this file advances virtual time, so an instrumented run keeps
// the calibrated timings of an uninstrumented one bit-for-bit.

// blockKind classifies where a process's non-compute virtual time went.
type blockKind int

const (
	blockRead    blockKind = iota // blocked in a channel read (MPI recv or handoff)
	blockWrite                    // inside a channel write (send overhead + rendezvous wait)
	blockMailbox                  // SPE stub posting a request or awaiting completion
)

// procAcc accumulates one process's virtual-time split.
type procAcc struct {
	start, end sim.Time
	ended      bool
	blocked    [3]sim.Time
}

// Histogram bucket layouts. Latencies and waits are recorded in
// microseconds (the paper's unit), payload sizes in bytes, bandwidth in
// MB/s, queue depth in requests.
var (
	latencyBucketsUs = metrics.ExpBuckets(0.5, 2, 24)
	sizeBuckets      = metrics.ExpBuckets(1, 4, 16)
	bwBucketsMBps    = metrics.ExpBuckets(0.125, 2, 24)
	depthBuckets     = metrics.LinearBuckets(0, 1, 33)
)

// Meter aggregates run-wide communication metrics: per-channel-type
// operation latency, payload size and achieved bandwidth histograms,
// Co-Pilot service-queue wait and depth, per-channel in-flight backlog
// watermarks, and per-process blocked-time attribution. Attach one with
// App.SetMetrics before Run; read the results from App.Stats after. Like
// the trace recorder, a Meter observes at zero virtual-time cost.
type Meter struct {
	reg   *metrics.Registry
	procs map[int]*procAcc // by process id

	// In-flight operation backlog per channel id: writes completed but not
	// yet matched by a completed read. The high-water mark is the channel's
	// congestion watermark.
	backlog     map[int]int
	backlogHigh map[int]int
}

// NewMeter creates an empty meter.
func NewMeter() *Meter {
	return &Meter{
		reg: metrics.NewRegistry(), procs: map[int]*procAcc{},
		backlog: map[int]int{}, backlogHigh: map[int]int{},
	}
}

// noteBacklog tracks a channel's in-flight operation backlog: a completed
// write raises it, a completed read drains it.
func (m *Meter) noteBacklog(chID int, kind trace.Kind) {
	switch kind {
	case trace.KindWrite:
		m.backlog[chID]++
		if m.backlog[chID] > m.backlogHigh[chID] {
			m.backlogHigh[chID] = m.backlog[chID]
		}
	case trace.KindRead:
		m.backlog[chID]--
	}
}

// BacklogHighWater reports a channel's in-flight backlog watermark.
func (m *Meter) BacklogHighWater(chID int) int { return m.backlogHigh[chID] }

// Registry exposes the raw metric registry (for dumps and exports).
func (m *Meter) Registry() *metrics.Registry { return m.reg }

func (m *Meter) acc(p *Process) *procAcc {
	a, ok := m.procs[p.id]
	if !ok {
		a = &procAcc{}
		m.procs[p.id] = a
	}
	return a
}

// sinkSet is an App's observability wiring: the attached sinks, and one
// fan-out list per event kind that the dispatch helpers walk. The Set*
// methods are the only way in, and they refuse once Run has started, so
// the set never changes while a run records.
type sinkSet struct {
	flight *trace.Flight // always on
	trace  *trace.Recorder
	meter  *Meter
	prof   *profile.Profiler
	host   *hostprof.Profiler
	tline  *timeline.Recorder
	flow   *flowmap.Map

	phase []func(trace.PhaseEvent) // every transfer phase (spanPhase)
	op    []func(opEvent)          // every completed read or write (opDone)
	proc  []func(procEvent)        // process lifetime start and end (procSpan)
}

// opEvent is one completed channel operation, read or write side.
type opEvent struct {
	kind  trace.Kind
	at    sim.Time
	proc  *Process
	ch    *Channel
	bytes int
	xfer  int64
	dur   sim.Time // the operation's blocked time
}

// procEvent marks a process's lifetime starting or ending. proc is nil
// for the service processes (Co-Pilots), which only the profiler tracks.
type procEvent struct {
	label string
	proc  *Process
	at    sim.Time
	end   bool
}

// attach is the Set* methods' shared configuration-phase check: before
// Run it applies set and rebuilds the fan-out lists; once Run has started
// it refuses, since attaching then would race with recording.
func (a *App) attach(api string, set func()) error {
	if a.phase != phaseConfig {
		return fmt.Errorf("pilot: %s: observability sinks must be attached in the configuration phase, before Run starts (attaching later would race with recording)", api)
	}
	set()
	a.wire()
	return nil
}

// wire rebuilds the fan-out lists from the attached sinks, so attaching a
// sink again replaces it and attaching nil detaches it.
func (a *App) wire() {
	s := &a.obs
	s.phase = append(s.phase[:0], s.flight.Record)
	s.op = s.op[:0]
	s.proc = s.proc[:0]
	if rec := s.trace; rec != nil {
		s.phase = append(s.phase, rec.RecordPhase)
		s.op = append(s.op, func(e opEvent) {
			rec.Record(trace.Event{At: e.at, Kind: e.kind, Proc: e.proc.String(), Channel: e.ch.id, Bytes: e.bytes, Xfer: e.xfer})
		})
	}
	if m := s.meter; m != nil {
		s.op = append(s.op, m.observeOp)
		s.proc = append(s.proc, m.observeProc)
	}
	if prof := s.prof; prof != nil {
		s.phase = append(s.phase, prof.RecordPhase)
		s.proc = append(s.proc, func(e procEvent) {
			if e.end {
				prof.ProcEnd(e.label, e.at)
			} else {
				prof.ProcStart(e.label, e.at)
			}
		})
	}
	if s.flow != nil {
		s.phase = append(s.phase, a.flowHop)
		s.op = append(s.op, a.flowDeliver)
	}
}

// newXfer allocates the next transfer id (ids are 1-based; 0 means
// "untagged"). With the always-on flight recorder every transfer is
// tagged; the id is pure host-side bookkeeping riding out-of-band, so the
// virtual timeline is unaffected.
func (a *App) newXfer() int64 {
	a.lastXfer++
	return a.lastXfer
}

// span builds the phase event for one stage of transfer xfer on ch.
func (ch *Channel) span(xfer int64, phase trace.PhaseKind, proc string, bytes int, start, end sim.Time) trace.PhaseEvent {
	return trace.PhaseEvent{
		Xfer: xfer, Phase: phase, Proc: proc,
		Channel: ch.id, ChanType: int(ch.typ), Bytes: bytes,
		Start: start, End: end,
	}
}

// spanPhase fans one transfer phase out to the phase sinks: the always-on
// flight recorder, then whichever of the span recorder, the profiler and
// the flow observatory are attached. Per-chunk annotations (pe.Chunk > 0:
// a chunk frame's stack injection or drain, or its LS↔EA move on the MFC
// DMA engine) share their stream's transfer id, so sampling keeps or
// drops them together with the stream's primary phases.
func (a *App) spanPhase(pe trace.PhaseEvent) {
	if pe.Xfer == 0 {
		return
	}
	for _, f := range a.obs.phase {
		f(pe)
	}
}

// opDone fans one completed channel operation out to the op sinks; its
// duration runs from start to the current virtual time.
func (a *App) opDone(p *sim.Proc, kind trace.Kind, proc *Process, ch *Channel, bytes int, xfer int64, start sim.Time) {
	now := p.Now()
	e := opEvent{kind: kind, at: now, proc: proc, ch: ch, bytes: bytes, xfer: xfer, dur: now - start}
	for _, f := range a.obs.op {
		f(e)
	}
}

// procSpan fans a process lifetime start (end=false) or end out to the
// proc sinks.
func (a *App) procSpan(label string, p *Process, at sim.Time, end bool) {
	e := procEvent{label: label, proc: p, at: at, end: end}
	for _, f := range a.obs.proc {
		f(e)
	}
}

// Stream-backlog gauge directions.
const (
	streamSendDir = "send" // chunks injected but not yet landed on the wire
	streamRecvDir = "recv" // chunks announced by the header but not yet drained
)

// noteStreamInflight publishes a chunked stream's in-flight backlog: the
// live gauge tracks the most recent observation (what /metrics samples),
// the highwater gauge the run's worst case.
func (m *Meter) noteStreamInflight(dir string, n int) {
	g := "copilot/stream/inflight_" + dir
	m.reg.Gauge(g).Set(float64(n))
	m.reg.Gauge(g + "_highwater").SetMax(float64(n))
}

// meterStreamInflight feeds noteStreamInflight when a meter is attached.
func (a *App) meterStreamInflight(dir string, n int) {
	if m := a.obs.meter; m != nil {
		m.noteStreamInflight(dir, n)
	}
}

// observeOp is the meter's op sink: per-channel-type operation count,
// payload, latency and bandwidth, plus the channel's backlog watermark.
func (m *Meter) observeOp(e opEvent) {
	m.noteBacklog(e.ch.id, e.kind)
	prefix := "chan/" + e.ch.typ.String()
	m.reg.Counter(prefix + "/ops").Inc()
	m.reg.Counter(prefix + "/payload_bytes_total").Add(int64(e.bytes))
	m.reg.Histogram(prefix+"/latency_us", latencyBucketsUs).Observe(e.dur.Micros())
	m.reg.Histogram(prefix+"/payload_bytes", sizeBuckets).Observe(float64(e.bytes))
	if e.dur > 0 && e.bytes > 0 {
		mbps := float64(e.bytes) / (float64(e.dur) / float64(sim.Second)) / 1e6
		m.reg.Histogram(prefix+"/bandwidth_mbps", bwBucketsMBps).Observe(mbps)
	}
}

// observeProc is the meter's proc sink: it bounds each user or SPE
// process's lifetime for the blocked-time split.
func (m *Meter) observeProc(e procEvent) {
	if e.proc == nil {
		return
	}
	acc := m.acc(e.proc)
	if e.end {
		acc.end = e.at
		acc.ended = true
	} else {
		acc.start = e.at
	}
}

// meterCopilotReq records one decoded Co-Pilot request: how long it sat
// between the SPE posting it and the Co-Pilot decoding it (mailbox
// transfer + polling quantization + service-queue wait), and the queue
// depth found at decode time.
func (a *App) meterCopilotReq(label string, wait sim.Time, depth int) {
	m := a.obs.meter
	if m == nil {
		return
	}
	prefix := "copilot/" + label
	m.reg.Counter(prefix + "/requests").Inc()
	m.reg.Histogram(prefix+"/queue_wait_us", latencyBucketsUs).Observe(wait.Micros())
	m.reg.Histogram(prefix+"/queue_depth", depthBuckets).Observe(float64(depth))
}

// meterBlocked attributes d of proc p's virtual time to a blocked state.
func (a *App) meterBlocked(p *Process, k blockKind, d sim.Time) {
	if a.obs.meter == nil || d <= 0 {
		return
	}
	a.obs.meter.acc(p).blocked[k] += d
}

// spePost is the side-band record of an SPE's in-flight mailbox request.
// The four-word descriptor has no room for a transfer id, and widening it
// would change the calibrated mailbox timings — so the id travels next to
// the simulated protocol, not in it.
type spePost struct {
	xfer     int64 // writer-allocated transfer id; 0 for read requests
	postedAt sim.Time
}

// spePosted records that p began posting a request descriptor at `at`.
// Called by the SPE stub immediately before the first mailbox word.
func (a *App) spePosted(p *Process, xfer int64, at sim.Time) {
	a.spePosts[p.id] = spePost{xfer: xfer, postedAt: at}
}

// speTakePost consumes the pending post record for p (decode time).
func (a *App) speTakePost(p *Process) spePost {
	post := a.spePosts[p.id]
	delete(a.spePosts, p.id)
	return post
}

// speSetDone hands the transfer id of a completed request back to the SPE
// stub (a reader learns its transfer's id only when the payload arrives).
func (a *App) speSetDone(p *Process, xfer int64) {
	a.speDone[p.id] = xfer
}

// speTakeDone consumes the completed-transfer id for p.
func (a *App) speTakeDone(p *Process) int64 {
	xfer := a.speDone[p.id]
	delete(a.speDone, p.id)
	return xfer
}

// obsComplete records the Co-Pilot-side phases of a finished SPE request
// (queue wait, decode/dispatch service) and hands the transfer id back to
// the stub for its own phase records.
func (cp *copilot) obsComplete(req *speReq) {
	a := cp.app
	if req.xfer != 0 {
		lbl := cp.rank.Label()
		a.spanPhase(req.ch.span(req.xfer, trace.PhaseCoPilotWait, lbl, req.size, req.postedAt, req.decodeAt))
		a.spanPhase(req.ch.span(req.xfer, trace.PhaseCoPilotService, lbl, req.size, req.decodeAt, req.svcEnd))
	}
	if req.op == opRead {
		// A reading stub learns its transfer's id only here, from the
		// payload; a writing stub allocated the id itself.
		a.speSetDone(req.proc, req.xfer)
	}
}
