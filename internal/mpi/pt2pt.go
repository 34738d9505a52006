package mpi

import (
	"fmt"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// envelope is a message in flight or queued unexpected at the receiver.
type envelope struct {
	src, tag int
	size     int
	eager    bool
	data     []byte // eager payload (copied at send time)
	// senderDone runs (in scheduler context) when a rendezvous data phase
	// lets the sender proceed: waking a parked Send, or completing an
	// Isend request.
	senderDone func()
	srcBuf     []byte // rendezvous: sender's buffer, read at the data phase
	srcNode    int
	dstNode    int
	xfer       int64 // observability transfer id (TagNextXfer), 0 = untagged
	// cancelled marks a rendezvous announcement whose sender abandoned the
	// wait (SendCtl deadline/stop); deliver discards it.
	cancelled bool
	// taken marks an envelope consumed from the unexpected queue; the
	// arrival-ordered index skips it lazily.
	taken bool
}

// envKey addresses one per-(source, tag) FIFO in the unexpected queue.
type envKey struct{ src, tag int }

// unexpectedQueue holds unmatched arrivals. The hot path — every channel
// operation receives from a specific peer on a specific tag — hits a
// per-key FIFO in O(1) instead of the old linear scan with a slice shift.
// Wildcard queries walk an arrival-ordered side index (taken entries are
// skipped lazily and compacted), reproducing the original scan's matching
// order exactly; no map iteration happens anywhere, so matching stays
// deterministic.
type unexpectedQueue struct {
	byKey map[envKey][]*envelope
	order []*envelope // arrival order; consumed entries stay until compaction
	head  int         // first possibly-live index in order
	n     int
}

func (q *unexpectedQueue) add(env *envelope) {
	if q.byKey == nil {
		q.byKey = map[envKey][]*envelope{}
	}
	k := envKey{env.src, env.tag}
	q.byKey[k] = append(q.byKey[k], env)
	for q.head < len(q.order) && q.order[q.head].taken {
		q.head++
	}
	if q.head > 32 && q.head > len(q.order)/2 {
		q.order = append(q.order[:0], q.order[q.head:]...)
		q.head = 0
	}
	q.order = append(q.order, env)
	q.n++
}

// peek returns the earliest-arrived envelope matching (src, tag) without
// consuming it.
func (q *unexpectedQueue) peek(src, tag int) (*envelope, bool) {
	if q.n == 0 {
		return nil, false
	}
	if src != AnySource && tag != AnyTag {
		if l := q.byKey[envKey{src, tag}]; len(l) > 0 {
			return l[0], true
		}
		return nil, false
	}
	for i := q.head; i < len(q.order); i++ {
		if env := q.order[i]; !env.taken && match(src, tag, env.src, env.tag) {
			return env, true
		}
	}
	return nil, false
}

// peekMulti returns the earliest-arrived envelope matching any spec, with
// the index of the first spec it matches — the ProbeMulti contract.
func (q *unexpectedQueue) peekMulti(specs []ProbeSpec) (int, *envelope, bool) {
	for i := q.head; i < len(q.order); i++ {
		env := q.order[i]
		if env.taken {
			continue
		}
		for si, sp := range specs {
			if match(sp.Src, sp.Tag, env.src, env.tag) {
				return si, env, true
			}
		}
	}
	return 0, nil, false
}

// take consumes the earliest-arrived envelope matching (src, tag). The
// match is always the head of its key FIFO: per-key order is a subsequence
// of arrival order.
func (q *unexpectedQueue) take(src, tag int) (*envelope, bool) {
	env, ok := q.peek(src, tag)
	if !ok {
		return nil, false
	}
	q.unlink(env)
	return env, true
}

// remove drops a specific envelope if still queued (SendCtl withdrawing a
// cancelled rendezvous announcement).
func (q *unexpectedQueue) remove(env *envelope) {
	if env.taken {
		return
	}
	k := envKey{env.src, env.tag}
	for _, e := range q.byKey[k] {
		if e == env {
			q.unlink(env)
			return
		}
	}
}

func (q *unexpectedQueue) unlink(env *envelope) {
	k := envKey{env.src, env.tag}
	l := q.byKey[k]
	if len(l) > 0 && l[0] == env {
		l = l[1:] // O(1) head pop — the overwhelmingly common case
	} else {
		for i, e := range l {
			if e == env {
				l = append(l[:i], l[i+1:]...)
				break
			}
		}
	}
	if len(l) == 0 {
		delete(q.byKey, k)
	} else {
		q.byKey[k] = l
	}
	env.taken = true
	q.n--
}

// recvReq is a posted receive awaiting a matching envelope.
type recvReq struct {
	src, tag int
	proc     *sim.Proc
	buf      []byte   // destination; nil means allocate
	segs     [][]byte // vectored destination (RecvIntoVec); overrides buf
	segTotal int
	done     bool
	status   Status
	out      []byte
	// abandoned marks a receive whose ctl fired (RecvCtl deadline/stop); a
	// data phase already in flight completes into the void.
	abandoned bool
	// onDone, when set, also receives the completion (nonblocking Irecv).
	onDone func(out []byte, st Status)
}

func match(src, tag, esrc, etag int) bool {
	return (src == AnySource || src == esrc) && (tag == AnyTag || tag == etag)
}

// localCopyTime is the shared-memory per-byte cost of the intra-node path.
func (w *World) localCopyTime(n int) sim.Time {
	if w.Par.LocalMPIBytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / w.Par.LocalMPIBytesPerSec * float64(sim.Second))
}

// ctrlLatency is the one-way time of a small control message (rendezvous
// RTS/CTS) between the two nodes.
func (w *World) ctrlLatency(a, b int) sim.Time {
	if a == b {
		return w.Par.LocalMPILatency
	}
	return w.Par.NetLatency
}

// Send transmits data to rank dst with the given tag. It blocks p for the
// software overhead and (remote) NIC serialization; above the eager
// threshold it additionally blocks until the receiver has posted the
// matching receive (rendezvous), which is how real MPI large-message sends
// behave and what makes unmatched large sends deadlock-visible. It is
// SendCtl with the zero sim.Ctl.
func (r *Rank) Send(p *sim.Proc, dst, tag int, data []byte) { r.SendCtl(p, dst, tag, data, sim.Ctl{}) }

// deliver runs in scheduler context when an envelope reaches the receiver.
func (r *Rank) deliver(env *envelope) {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	if env.cancelled {
		return
	}
	if w := r.w; w.Flow != nil {
		w.Flow(w.ranks[env.src].node.ID, r.node.ID, env.size)
	}
	if r.arrival != nil {
		r.arrival()
	}
	r.wakeProbes(env)
	for i, req := range r.posted {
		if match(req.src, req.tag, env.src, env.tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			r.complete(env, req)
			return
		}
	}
	r.unexpected.add(env)
}

// complete pairs an envelope with a receive request: immediate copy for an
// arrived eager message, or the rendezvous data phase. It may run in
// scheduler context (async delivery) or in the receiver's own context (a
// Recv that found the envelope unexpected), so it wakes the receiver only
// if the receiver is parked.
//
// Rendezvous data does not book NIC occupancy (the envelope already
// modelled queueing for the header; payload contention is second-order for
// the paper's single-stream benchmarks) — it charges serialization plus
// propagation analytically.
func (r *Rank) complete(env *envelope, req *recvReq) {
	w := r.w
	if req.segs != nil && env.size != req.segTotal {
		w.K.Abort(fmt.Errorf("mpi: rank %d vectored recv expects exactly %d bytes, message has %d (tag %d from rank %d)",
			r.id, req.segTotal, env.size, env.tag, env.src))
		return
	}
	if req.segs == nil && req.buf != nil && env.size > len(req.buf) {
		w.K.Abort(fmt.Errorf("mpi: rank %d recv buffer too small: %d < %d (tag %d from rank %d)",
			r.id, len(req.buf), env.size, env.tag, env.src))
		return
	}
	finish := func(payload []byte) {
		if req.abandoned {
			return
		}
		n := 0
		if req.segs != nil {
			for _, seg := range req.segs {
				n += copy(seg, payload[n:])
			}
		} else {
			req.out = req.buf
			if req.out == nil {
				req.out = make([]byte, env.size)
			}
			n = copy(req.out, payload)
		}
		req.status = Status{Source: env.src, Tag: env.tag, Count: n, Xfer: env.xfer}
		req.done = true
		if req.onDone != nil {
			req.onDone(req.out, req.status)
		}
		w.K.ReadyIfParked(req.proc)
	}
	if env.eager {
		finish(env.data)
		return
	}
	// Rendezvous data phase: CTS travels back, then the payload.
	cts := w.ctrlLatency(env.srcNode, env.dstNode)
	var ser, lat sim.Time
	if env.srcNode == env.dstNode {
		ser = w.localCopyTime(env.size)
		lat = w.Par.LocalMPILatency
	} else {
		ser = w.Clu.Net.SerializationTime(env.size)
		lat = w.Par.NetLatency
	}
	w.K.After(cts+ser, env.senderDone)
	w.K.After(cts+ser+lat, func() { finish(env.srcBuf) })
}

// Recv receives a message matching (src, tag) — wildcards allowed — into a
// fresh buffer, blocking until it arrives.
func (r *Rank) Recv(p *sim.Proc, src, tag int) ([]byte, Status) {
	out, st, _ := r.recvCtl(p, src, tag, nil, sim.Ctl{})
	return out, st
}

// RecvInto receives into buf (which may alias simulated memory, e.g. an
// SPE local-store window — the Co-Pilot's zero-copy trick). The message
// must fit in buf.
func (r *Rank) RecvInto(p *sim.Proc, src, tag int, buf []byte) (int, Status) {
	_, st, _ := r.recvCtl(p, src, tag, buf, sim.Ctl{})
	return st.Count, st
}

func (r *Rank) takeUnexpected(src, tag int) (*envelope, bool) {
	return r.unexpected.take(src, tag)
}

// probeReq is a blocked Probe or ProbeMulti.
type probeReq struct {
	specs   []ProbeSpec
	proc    *sim.Proc
	status  Status
	matched int
	done    bool
}

func (r *Rank) wakeProbes(env *envelope) {
	for i, pr := range r.probes {
		for si, sp := range pr.specs {
			if match(sp.Src, sp.Tag, env.src, env.tag) {
				pr.status = Status{Source: env.src, Tag: env.tag, Count: env.size, Xfer: env.xfer}
				pr.matched = si
				pr.done = true
				r.probes = append(r.probes[:i], r.probes[i+1:]...)
				r.w.K.ReadyIfParked(pr.proc)
				return
			}
		}
	}
}

// Probe blocks until a message matching (src, tag) is available to Recv,
// and reports its status without consuming it.
func (r *Rank) Probe(p *sim.Proc, src, tag int) Status {
	_, st := r.ProbeMulti(p, []ProbeSpec{{Src: src, Tag: tag}})
	return st
}

// Iprobe reports whether a message matching (src, tag) is available,
// without blocking or consuming it.
func (r *Rank) Iprobe(p *sim.Proc, src, tag int) (Status, bool) {
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	if env, ok := r.unexpected.peek(src, tag); ok {
		return Status{Source: env.src, Tag: env.tag, Count: env.size, Xfer: env.xfer}, true
	}
	return Status{}, false
}
