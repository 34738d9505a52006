package core

import (
	"errors"
	"fmt"

	"cellpilot/internal/deadlock"
	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/hostprof"
	"cellpilot/internal/sdk"
	"cellpilot/internal/sim"
	"cellpilot/internal/trace"
)

// SPECtx is the execution handle of an SPE process: the CellPilot SPE
// stub. Its Read and Write pack or unpack the message in a local-store
// buffer, post a four-word request descriptor through the outbound
// mailbox, and wait for the Co-Pilot's completion status in the inbound
// mailbox — exactly the protocol of paper Section IV.B, with no DMA
// programming in sight.
type SPECtx struct {
	app  *App
	P    *sim.Proc
	Self *Process
	sctx *sdk.Context
	arg  int
	env  any
}

// Arg reports the int argument passed to RunSPE — the paper's mechanism
// for giving each instance of a data-parallel SPE function its own index.
func (c *SPECtx) Arg() int { return c.arg }

// Env reports the environment pointer passed to RunSPE.
func (c *SPECtx) Env() any { return c.env }

// Index reports the index given at CreateSPE.
func (c *SPECtx) Index() int { return c.Self.index }

// LSFree reports the local-store bytes still available to message buffers
// — what remains of the 256 KB after the CellPilot runtime, the program
// image and the stack reserve.
func (c *SPECtx) LSFree() int { return c.sctx.SPE.LS.Free() }

// mailboxReq builds the mailbox-request phase event of a descriptor
// posted over [start, end]. It carries, and consumes, the repost time the
// fault protocol has added since the last such event.
func (c *SPECtx) mailboxReq(xfer int64, ch *Channel, bytes int, start, end sim.Time) trace.PhaseEvent {
	pe := ch.span(xfer, trace.PhaseMailboxReq, c.Self.String(), bytes, start, end)
	pe.Repost, c.Self.repost = c.Self.repost, 0
	return pe
}

func (c *SPECtx) fail(loc callSite, api, format string, args ...any) {
	c.P.Fatalf("%v", usageError(loc.String(), api, format, args...))
}

// exchange runs one request through the Co-Pilot: it posts the
// descriptor and waits for the completion status. It returns when the
// descriptor was posted, and the operation's fault, already shaped by
// opFault, when it did not complete.
func (c *SPECtx) exchange(loc callSite, api string, op speOpcode, ch *Channel, lsAddr uint32, size int, sig uint32, ctl sim.Ctl) (sim.Time, *ChannelFault) {
	if cf := c.postDesc(loc, api, op, ch, lsAddr, size, sig, ctl); cf != nil {
		return 0, cf
	}
	postEnd := c.P.Now()
	return postEnd, c.waitStatus(loc, api, ch, ctl)
}

// postDesc posts the four-word request descriptor through the outbound
// mailbox and nudges the Co-Pilot after word0; the 1-entry outbound
// mailbox makes the later words stall until the Co-Pilot drains them — a
// real contributor to the latencies in paper Table II. Word0 is bounded
// by ctl. Once it is in, the Co-Pilot reads the other three words, and a
// descriptor cut short would put its decode out of step with the stub's
// next one, so the deadline no longer applies. In a hardened run a
// poisoned channel still stops the post (a dead Co-Pilot poisons every
// channel it serves, and its full mailbox must not park the stub forever);
// the Co-Pilot then drops the truncated descriptor after a timeout. When
// the plan injects mailbox faults the descriptor rides the
// sequence-numbered ACK/repost protocol instead. A non-nil return is the
// operation's fault, already shaped by opFault.
func (c *SPECtx) postDesc(loc callSite, api string, op speOpcode, ch *Channel, lsAddr uint32, size int, sig uint32, ctl sim.Ctl) *ChannelFault {
	if !c.app.mailboxHardened() {
		for i, w := range [4]uint32{reqWord0(op, ch.id), lsAddr, uint32(size), sig} {
			if err := c.sctx.WriteOutMboxCtl(c.P, w, ctl); err != nil {
				return c.app.opFault(loc, api, c.Self, ch, err)
			}
			if i == 0 {
				c.app.copilotFor(c.Self).nudge()
				ctl.Deadline = 0
				if !c.app.hardened() {
					ctl.Stop = nil
				}
			}
		}
		return nil
	}
	// Mailbox-hardened: word0 carries a 4-bit sequence number; the
	// Co-Pilot ACKs every decoded descriptor and NACKs garbled ones. The
	// stub reposts on NACK or ACK timeout; the Co-Pilot's per-SPE sequence
	// check discards duplicates (re-ACKing them), so a repost racing a
	// slow ACK is harmless.
	seq := c.Self.mboxSeq & speSeqMask
	c.Self.mboxSeq++
	inj := c.app.opts.Faults
	// Time spent from the first repost onward is fault-protocol backoff,
	// not nominal posting cost; the mailbox-request phase event carries it
	// (see mailboxReq) so the profiler attributes it separately.
	repostFrom := sim.Time(-1)
	defer func() {
		if repostFrom >= 0 {
			c.Self.repost += c.P.Now() - repostFrom
		}
	}()
	for attempt := 0; ; attempt++ {
		if attempt == 1 {
			repostFrom = c.P.Now()
		}
		if attempt > 0 {
			inj.Counts.MailboxReposts++
			inj.Logf(c.P.Now(), "%s reposts descriptor seq=%d on %s (attempt %d)", c.Self, seq, ch, attempt+1)
		}
		if attempt >= maxReposts {
			c.app.failChannel(ch, fmt.Sprintf("%s could not hand a request descriptor to its co-pilot after %d attempts", c.Self, attempt))
			return c.app.opFault(loc, api, c.Self, ch, ch.fault)
		}
		for i, w := range [4]uint32{reqWord0Seq(op, seq, ch.id), lsAddr, uint32(size), sig} {
			if err := c.sctx.WriteOutMboxCtl(c.P, w, ctl); err != nil {
				return c.app.opFault(loc, api, c.Self, ch, err)
			}
			if i == 0 {
				c.app.copilotFor(c.Self).nudge()
			}
		}
		ack := sim.Ctl{Deadline: c.P.Now() + c.app.ackTimeout(), Stop: ctl.Stop}
		if ctl.Deadline > 0 && ctl.Deadline < ack.Deadline {
			ack.Deadline = ctl.Deadline
		}
		acked, err := c.awaitAck(ch, seq, ack)
		if err != nil {
			if errors.Is(err, sim.ErrTimeout) && (ctl.Deadline == 0 || c.P.Now() < ctl.Deadline) {
				continue // ACK overdue, not the operation deadline: repost
			}
			return c.app.opFault(loc, api, c.Self, ch, err)
		}
		if acked {
			return nil
		}
		// NACK: the Co-Pilot saw a garbled/incomplete descriptor. Repost.
	}
}

// awaitAck waits, bounded by ack, for the ACK/NACK of descriptor seq.
// Stray words (late completions, ACKs of earlier sequences) are
// discarded.
func (c *SPECtx) awaitAck(ch *Channel, seq uint32, ack sim.Ctl) (acked bool, err error) {
	for {
		v, rerr := c.sctx.ReadInMboxCtl(c.P, ack)
		if rerr != nil {
			return false, rerr
		}
		if !isAckNack(v) || v&speSeqMask != seq {
			continue
		}
		return v&speStatusKindMask == speStatusAckBase, nil
	}
}

// waitStatus reads the Co-Pilot's completion status for the current
// request, bounded by ctl, and returns the operation's fault when the
// request did not complete. A fault status naming another channel is the
// late status of a request this stub gave up on, and in mailbox-hardened
// mode stale ACK/NACK words of reposted descriptors are skipped too.
func (c *SPECtx) waitStatus(loc callSite, api string, ch *Channel, ctl sim.Ctl) *ChannelFault {
	mh := c.app.mailboxHardened()
	for {
		v, err := c.sctx.ReadInMboxCtl(c.P, ctl)
		switch {
		case err != nil:
			return c.app.opFault(loc, api, c.Self, ch, err)
		case v == speStatusOK:
			return nil
		case v == speFault(ch.id):
			src := error(ch.fault)
			if ch.fault == nil {
				src = fmt.Errorf("the co-pilot faulted the transfer (peer dead or channel poisoned)")
			}
			return c.app.opFault(loc, api, c.Self, ch, src)
		case isFault(v), mh && isAckNack(v):
			// A late word of an earlier request: skip it.
		default:
			c.fail(loc, api, "transfer failed on %s (status %d)", ch, v)
		}
	}
}

// speSoftFail finishes a Try* operation that faulted: a timeout poisons
// the channel (the mailbox protocol is mid-flight; the Co-Pilot turns its
// late completion into a fault status this stub will skip), the blocked
// report is cleared, and the fault is returned to the caller. The operation's local-store buffer
// stays allocated for the rest of the program: the Co-Pilot may still
// land a payload in it.
func (c *SPECtx) speSoftFail(ch *Channel, cf *ChannelFault, blocked bool) error {
	if blocked {
		c.app.reportUnblock(c.Self)
	}
	if cf.Timeout {
		c.app.failChannel(ch, fmt.Sprintf("%s at %s timed out in %s mid-protocol", cf.API, cf.Loc, c.Self))
	}
	return cf
}

// Write sends args on ch (PI_Write from an SPE process).
func (c *SPECtx) Write(ch *Channel, format string, args ...any) {
	loc := callerLoc(1)
	c.writeFrom(loc, "PI_Write", ch, 0, false, format, args...)
}

// TryWrite is Write bounded by a relative timeout (0 falls back to
// Options.OpTimeout), returning a *ChannelFault instead of unwinding the
// process. Because a timed-out mailbox protocol leaves the channel state
// indeterminate, an SPE-side TryWrite timeout poisons the channel, and the
// message's local-store buffer stays allocated for the rest of the SPE
// program (LSFree shrinks by its size).
func (c *SPECtx) TryWrite(ch *Channel, timeout sim.Time, format string, args ...any) error {
	loc := callerLoc(1)
	return c.writeFrom(loc, "PI_TryWrite", ch, timeout, true, format, args...)
}

func (c *SPECtx) writeFrom(loc callSite, api string, ch *Channel, timeout sim.Time, soft bool, format string, args ...any) error {
	if ch == nil {
		c.fail(loc, api, "nil channel")
	}
	if ch.From != c.Self {
		c.fail(loc, api, "%s is not the writer of %s", c.Self, ch)
	}
	c.app.obs.host.Enter(hostprof.SubsysFmtmsg)
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.app.obs.host.Exit()
		c.fail(loc, api, "%v", err)
	}
	bp := fmtmsg.GetWireBuf(0)
	defer fmtmsg.PutWireBuf(bp)
	wire, err := spec.PackInto(*bp, args...)
	c.app.obs.host.Exit()
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	*bp = wire
	if ch.fault != nil {
		cf := c.app.opFault(loc, api, c.Self, ch, ch.fault)
		if soft {
			return cf
		}
		c.app.raiseFault(c.Self, ch, cf, false)
	}
	packStart := c.P.Now()
	ctl, unwatch := c.app.opCtl(ch, c.P, c.app.opDeadline(packStart, timeout))
	defer unwatch()
	c.P.Advance(c.app.par.SPEStubOverhead + c.app.par.PackTime(len(wire)))
	xfer := c.app.newXfer()
	c.app.spanPhase(ch.span(xfer, trace.PhasePack, c.Self.String(), len(wire), packStart, c.P.Now()))
	ls := c.sctx.SPE.LS
	lsAddr, err := ls.Alloc("PI_Write buffer", len(wire), 16)
	if err != nil {
		// The 256 KB discipline the paper stresses: the programmer still
		// has to cope with limited SPE memory.
		c.fail(loc, api, "%v", err)
	}
	win, err := ls.Window(lsAddr, len(wire))
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	copy(win, wire)
	// With the SPE-deadlock extension, writes that genuinely wait for the
	// peer (type-4 rendezvous, rendezvous-sized payloads) report to the
	// service; eager relays complete regardless of the reader and must not
	// create false cycles.
	blocking := c.app.opts.SPEDeadlock &&
		(ch.typ == Type4 || hdrSize+len(wire) > c.app.par.EagerThreshold)
	if blocking {
		c.app.reportBlock(c.Self, ch.To, ch, deadlock.OpWrite, loc)
	}
	postStart := c.P.Now()
	c.app.spePosted(c.Self, xfer, postStart)
	postEnd, cf := c.exchange(loc, api, opWrite, ch, lsAddr, len(wire), spec.Signature(), ctl)
	if cf != nil {
		if soft {
			return c.speSoftFail(ch, cf, blocking)
		}
		c.app.raiseFault(c.Self, ch, cf, blocking)
	}
	if blocking {
		c.app.reportUnblock(c.Self)
	} else {
		c.app.reportSent(ch) // eager relay: in flight regardless of reader
	}
	c.app.spanPhase(c.mailboxReq(xfer, ch, len(wire), postStart, postEnd))
	c.app.spanPhase(ch.span(xfer, trace.PhaseMailboxWait, c.Self.String(), len(wire), postEnd, c.P.Now()))
	c.app.meterBlocked(c.Self, blockMailbox, c.P.Now()-postStart)
	c.app.opDone(c.P, trace.KindWrite, c.Self, ch, len(wire), xfer, packStart)
	if err := ls.Release(); err != nil {
		c.fail(loc, api, "%v", err)
	}
	return nil
}

// Read receives a message from ch into args (PI_Read from an SPE
// process). The Co-Pilot lands the payload directly in this SPE's local
// store through the effective-address mapping; the stub then unpacks it.
func (c *SPECtx) Read(ch *Channel, format string, args ...any) {
	loc := callerLoc(1)
	c.readFrom(loc, "PI_Read", ch, 0, false, format, args...)
}

// TryRead is Read bounded by a relative timeout (0 falls back to
// Options.OpTimeout), returning a *ChannelFault instead of unwinding the
// process. Like TryWrite, an SPE-side timeout poisons the channel.
func (c *SPECtx) TryRead(ch *Channel, timeout sim.Time, format string, args ...any) error {
	loc := callerLoc(1)
	return c.readFrom(loc, "PI_TryRead", ch, timeout, true, format, args...)
}

func (c *SPECtx) readFrom(loc callSite, api string, ch *Channel, timeout sim.Time, soft bool, format string, args ...any) error {
	if ch == nil {
		c.fail(loc, api, "nil channel")
	}
	if ch.To != c.Self {
		c.fail(loc, api, "%s is not the reader of %s", c.Self, ch)
	}
	spec, err := fmtmsg.Parse(format)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	expected, err := spec.WireSize(args...)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	if ch.fault != nil {
		cf := c.app.opFault(loc, api, c.Self, ch, ch.fault)
		if soft {
			return cf
		}
		c.app.raiseFault(c.Self, ch, cf, false)
	}
	ctl, unwatch := c.app.opCtl(ch, c.P, c.app.opDeadline(c.P.Now(), timeout))
	defer unwatch()
	ls := c.sctx.SPE.LS
	lsAddr, err := ls.Alloc("PI_Read buffer", expected, 16)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	blocking := c.app.opts.SPEDeadlock
	if blocking {
		c.app.reportBlock(c.Self, ch.From, ch, deadlock.OpRead, loc)
	}
	postStart := c.P.Now()
	c.app.spePosted(c.Self, 0, postStart) // reader: id arrives with the payload
	postEnd, cf := c.exchange(loc, api, opRead, ch, lsAddr, expected, spec.Signature(), ctl)
	if cf != nil {
		if soft {
			return c.speSoftFail(ch, cf, blocking)
		}
		c.app.raiseFault(c.Self, ch, cf, blocking)
	}
	if blocking {
		c.app.reportUnblock(c.Self)
	}
	waitEnd := c.P.Now()
	xfer := c.app.speTakeDone(c.Self)
	win, err := ls.Window(lsAddr, expected)
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	c.P.Advance(c.app.par.SPEStubOverhead + c.app.par.PackTime(expected))
	c.app.obs.host.Enter(hostprof.SubsysFmtmsg)
	err = spec.Unpack(win, args...)
	c.app.obs.host.Exit()
	if err != nil {
		c.fail(loc, api, "%v", err)
	}
	self := c.Self.String()
	c.app.spanPhase(c.mailboxReq(xfer, ch, expected, postStart, postEnd))
	c.app.spanPhase(ch.span(xfer, trace.PhaseMailboxWait, self, expected, postEnd, waitEnd))
	c.app.spanPhase(ch.span(xfer, trace.PhasePack, self, expected, waitEnd, c.P.Now()))
	c.app.meterBlocked(c.Self, blockMailbox, waitEnd-postStart)
	c.app.opDone(c.P, trace.KindRead, c.Self, ch, expected, xfer, postStart)
	if err := ls.Release(); err != nil {
		c.fail(loc, api, "%v", err)
	}
	return nil
}

// Log emits a trace line tagged with the SPE process and virtual time.
func (c *SPECtx) Log(format string, args ...any) {
	c.app.logf(c.P, c.Self, format, args...)
}
