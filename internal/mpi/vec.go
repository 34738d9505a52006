package mpi

import (
	"fmt"

	"cellpilot/internal/sim"
)

// SendVec sends the concatenation of segments as one message: SendVecCtl
// with the zero sim.Ctl.
func (r *Rank) SendVec(p *sim.Proc, dst, tag int, segs ...[]byte) {
	r.SendVecCtl(p, dst, tag, sim.Ctl{}, segs...)
}

// IsendVec is the nonblocking SendVec: the segments are snapshotted and
// the send proceeds without the caller. The Co-Pilot relays SPE writes
// this way — a blocking relay to a PPE that is itself mid-send toward the
// Co-Pilot would be a circular wait.
func (r *Rank) IsendVec(p *sim.Proc, dst, tag int, segs ...[]byte) *Request {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	for _, s := range segs {
		buf = append(buf, s...)
	}
	return r.Isend(p, dst, tag, buf)
}

// RecvIntoVec receives one message scattered across the given segments in
// order (header into scratch, payload straight into a local-store window).
// The message size must exactly fill the segments.
func (r *Rank) RecvIntoVec(p *sim.Proc, src, tag int, segs ...[]byte) Status {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	req := &recvReq{src: src, tag: tag, proc: p, segs: segs, segTotal: total}
	if env, ok := r.takeUnexpected(src, tag); ok {
		r.complete(env, req)
	} else {
		r.posted = append(r.posted, req)
	}
	for !req.done {
		p.Park(fmt.Sprintf("mpi recvvec rank%d src=%d tag=%d", r.id, src, tag))
	}
	return req.status
}

// OnArrival registers fn to run (in scheduler context) whenever a message
// is delivered to this rank, whether or not a receive was posted. The
// Co-Pilot registers a nudge here so its event loop can block instead of
// spinning.
func (r *Rank) OnArrival(fn func()) { r.arrival = fn }

// ProbeSpec is one (source, tag) pattern for ProbeMulti.
type ProbeSpec struct {
	Src, Tag int
}

// ProbeMulti blocks until a message matching any of the specs is available
// and returns the index of the first matching spec with the message's
// status; the message is not consumed. It is the primitive behind Pilot's
// bundle select.
func (r *Rank) ProbeMulti(p *sim.Proc, specs []ProbeSpec) (int, Status) {
	r.bind(p)
	p.Advance(r.w.Par.MPIRecvOverhead)
	if i, env, ok := r.unexpected.peekMulti(specs); ok {
		return i, Status{Source: env.src, Tag: env.tag, Count: env.size, Xfer: env.xfer}
	}
	pr := &probeReq{specs: specs, proc: p}
	r.probes = append(r.probes, pr)
	for !pr.done {
		p.Park(fmt.Sprintf("mpi probemulti rank%d (%d patterns)", r.id, len(specs)))
	}
	return pr.matched, pr.status
}
