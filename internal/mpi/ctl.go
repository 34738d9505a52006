package mpi

import (
	"errors"
	"fmt"

	"cellpilot/internal/hostprof"
	"cellpilot/internal/sim"
)

// ErrDeadline is returned by the operations bounded by a sim.Ctl when the
// deadline passes before the operation completes. Every blocking send and
// receive has one implementation taking a sim.Ctl; the plain calls (Send,
// Recv, RecvInto, SendVec) pass the zero Ctl.
var ErrDeadline = errors.New("mpi: operation deadline exceeded")

// RecvCtl is Recv bounded by ctl. On abandonment the posted receive is
// withdrawn; a message that arrives later queues as unexpected for a
// future receive.
func (r *Rank) RecvCtl(p *sim.Proc, src, tag int, ctl sim.Ctl) ([]byte, Status, error) {
	return r.recvCtl(p, src, tag, nil, ctl)
}

// recvCtl is the one blocking receive: into buf (nil allocates a fresh
// buffer), bounded by ctl.
func (r *Rank) recvCtl(p *sim.Proc, src, tag int, buf []byte, ctl sim.Ctl) ([]byte, Status, error) {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	r.bind(p)
	w := r.w
	p.Advance(w.Par.MPIRecvOverhead)
	req := &recvReq{src: src, tag: tag, proc: p, buf: buf}
	if env, ok := r.takeUnexpected(src, tag); ok {
		r.complete(env, req)
	} else {
		r.posted = append(r.posted, req)
	}
	var tm *sim.Timer
	if ctl.Deadline > 0 && !req.done {
		tm = w.K.AfterTimer(ctl.Deadline-w.K.Now(), func() { w.K.ReadyIfParked(p) })
	}
	for !req.done {
		if err := ctl.Check(w.K.Now(), ErrDeadline); err != nil {
			req.abandoned = true
			for i, q := range r.posted {
				if q == req {
					r.posted = append(r.posted[:i], r.posted[i+1:]...)
					break
				}
			}
			tm.Cancel()
			return nil, Status{}, err
		}
		p.Park(fmt.Sprintf("mpi recv rank%d src=%d tag=%d", r.id, src, tag))
	}
	tm.Cancel()
	return req.out, req.status, nil
}

// SendCtl is Send bounded by ctl — the one blocking send. Only the
// rendezvous wait (a payload above the eager threshold waiting for the
// matching receive) can be abandoned: eager sends are buffered and
// complete locally. An abandoned rendezvous withdraws its RTS
// announcement; the message is never delivered.
func (r *Rank) SendCtl(p *sim.Proc, dst, tag int, data []byte, ctl sim.Ctl) error {
	r.w.Host.Enter(hostprof.SubsysMPI)
	defer r.w.Host.Exit()
	r.bind(p)
	if dst < 0 || dst >= len(r.w.ranks) {
		p.Fatalf("mpi: send to invalid rank %d", dst)
	}
	w := r.w
	d := w.ranks[dst]
	p.Advance(w.Par.MPISendOverhead)
	size := len(data)
	env := &envelope{
		src: r.id, tag: tag, size: size,
		srcNode: r.node.ID, dstNode: d.node.ID,
		xfer: r.takeXfer(),
	}
	if size <= w.Par.EagerThreshold {
		env.eager = true
		env.data = append([]byte(nil), data...)
		var arrival sim.Time
		if r.node.ID == d.node.ID {
			p.Advance(w.localCopyTime(size)) // copy into the shm mailbox
			arrival = w.K.Now() + w.Par.LocalMPILatency
		} else {
			if w.relNeeded(r, d) {
				w.relSend(p, r, d, env)
				return nil
			}
			var nerr error
			arrival, nerr = w.Clu.Net.Send(p, r.node.ID, d.node.ID, size)
			if nerr != nil {
				p.Fatalf("mpi: rank %d send to rank %d: %v", r.id, dst, nerr)
			}
		}
		w.K.After(arrival-w.K.Now(), func() { d.deliver(env) })
		return nil
	}
	// Rendezvous: announce with an RTS, then park until the data phase
	// (started by the matching receive) completes or the ctl abandons the
	// wait.
	done := false
	env.senderDone = func() {
		done = true
		w.K.ReadyIfParked(p)
	}
	env.srcBuf = data
	rts := w.ctrlLatency(r.node.ID, d.node.ID)
	w.K.After(rts, func() { d.deliver(env) })
	var tm *sim.Timer
	if ctl.Deadline > 0 {
		tm = w.K.AfterTimer(ctl.Deadline-w.K.Now(), func() { w.K.ReadyIfParked(p) })
	}
	for !done {
		if err := ctl.Check(w.K.Now(), ErrDeadline); err != nil {
			env.cancelled = true
			d.unexpected.remove(env)
			tm.Cancel()
			return err
		}
		p.Park(fmt.Sprintf("mpi rendezvous send rank%d->rank%d tag %d (%d bytes)", r.id, dst, tag, size))
	}
	tm.Cancel()
	return nil
}

// SendVecCtl sends the concatenation of segments as one message, bounded
// by ctl. The Co-Pilot and the Pilot layer use it to prepend a validation
// header to a payload that lives in an SPE local-store window without
// staging the payload through main memory (the copy below is a Go
// implementation detail; the *time* charged is the single-message cost,
// which is what the zero-copy design buys).
func (r *Rank) SendVecCtl(p *sim.Proc, dst, tag int, ctl sim.Ctl, segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	for _, s := range segs {
		buf = append(buf, s...)
	}
	return r.SendCtl(p, dst, tag, buf, ctl)
}
