package core

import (
	"fmt"

	"cellpilot/internal/deadlock"
	"cellpilot/internal/sim"
)

// svcKind tags deadlock-service messages.
type svcKind int

const (
	svcBlock svcKind = iota
	svcUnblock
	svcSent
	svcExit
)

// svcMsg is one report to the deadlock service.
type svcMsg struct {
	kind svcKind
	proc *Process
	peer *Process
	ch   *Channel
	op   deadlock.Op
	loc  string // user call site of the blocked operation (may be empty)
}

// svcState is the deadlock-detection service (the paper's "-pisvc=d"): a
// dedicated process consuming BLOCK/UNBLOCK reports from channel
// operations and aborting the run when a circular wait forms. Reports
// travel on an out-of-band queue so enabling the service does not perturb
// the calibrated channel timings (the real service rides MPI; its
// perturbation is not part of any measured experiment).
type svcState struct {
	app *App
	q   *sim.Queue[svcMsg]
	det *deadlock.Detector
}

func newSvc(a *App) *svcState {
	names := make(map[int]string, len(a.procs))
	for _, p := range a.procs {
		names[p.id] = p.String()
	}
	return &svcState{
		app: a,
		q:   sim.NewQueue[svcMsg](a.K, "pisvc", 1<<15),
		det: deadlock.New(names),
	}
}

func (s *svcState) post(m svcMsg) {
	if !s.q.TryPut(m) {
		// The queue is far larger than any plausible in-flight report set;
		// overflowing it means the service died or the app leaked reports.
		s.app.K.Abort(fmt.Errorf("pilot: deadlock service queue overflow"))
	}
}

func (s *svcState) loop(p *sim.Proc) {
	for {
		m := s.q.Get(p)
		switch m.kind {
		case svcExit:
			return
		case svcBlock:
			var cyc *deadlock.Cycle
			if m.op == deadlock.OpRead {
				cyc = s.det.BlockReadAt(m.proc.id, m.peer.id, m.ch.id, m.loc)
			} else {
				cyc = s.det.BlockWriteAt(m.proc.id, m.peer.id, m.ch.id, m.loc)
			}
			if cyc != nil {
				// With an operation timeout armed, a circular wait degrades
				// instead of aborting: the member operations time out, and
				// each timeout fault carries this cycle as its diagnostic
				// (the wait graph keeps the cycle until then).
				if s.app.opts.OpTimeout > 0 {
					s.app.opts.Faults.Logf(s.app.K.Now(), "deadlock detected, degrading via timeouts: %v", cyc)
					continue
				}
				s.app.K.Abort(cyc)
				return
			}
		case svcSent:
			s.det.Sent(m.ch.id)
		case svcUnblock:
			s.det.Unblock(m.proc.id)
		}
	}
}

// reportBlock tells the deadlock service proc is blocked on ch waiting for
// peer, at user call site loc. No-op unless the service is enabled, so
// only a run with the service resolves the call site.
func (a *App) reportBlock(proc, peer *Process, ch *Channel, op deadlock.Op, loc callSite) {
	if a.svc != nil {
		a.svc.post(svcMsg{kind: svcBlock, proc: proc, peer: peer, ch: ch, op: op, loc: loc.String()})
	}
}

// reportUnblock tells the deadlock service proc resumed.
func (a *App) reportUnblock(proc *Process) {
	if a.svc != nil {
		a.svc.post(svcMsg{kind: svcUnblock, proc: proc})
	}
}

// reportSent tells the deadlock service a message was handed to the
// transport on ch, so a present or future blocked read on ch is not a
// wait-for edge.
func (a *App) reportSent(ch *Channel) {
	if a.svc != nil {
		a.svc.post(svcMsg{kind: svcSent, ch: ch})
	}
}
