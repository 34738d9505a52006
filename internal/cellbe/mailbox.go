package cellbe

import "cellpilot/internal/sim"

// Mailbox models one direction of an SPE's 32-bit mailbox channel. The real
// hardware provides a 4-entry inbound mailbox (PPE→SPE), a 1-entry outbound
// mailbox (SPE→PPE) and a 1-entry interrupting outbound mailbox; writes to a
// full mailbox and reads from an empty one stall.
type Mailbox struct {
	name string
	q    *sim.Queue[uint32]
	par  *Params
	// hook, when set, is consulted on every write with the writer's fault
	// verdict: drop loses the word after the write cost is charged (the
	// store to the channel faults silently), stall adds latency first.
	hook func() (drop bool, stall sim.Time)
}

// SetFaultHook installs the fault-injection hook for this mailbox
// direction. A nil hook (the default) leaves writes untouched.
func (m *Mailbox) SetFaultHook(h func() (drop bool, stall sim.Time)) { m.hook = h }

// NewMailbox creates a mailbox with the given entry capacity.
func NewMailbox(k *sim.Kernel, name string, capacity int, par *Params) *Mailbox {
	return &Mailbox{name: name, q: sim.NewQueue[uint32](k, name, capacity), par: par}
}

// Write pushes one entry, stalling p while the mailbox is full: WriteCtl
// with no bound.
func (m *Mailbox) Write(p *sim.Proc, v uint32) { m.WriteCtl(p, v, sim.Ctl{}) }

// Read pops one entry, stalling p while the mailbox is empty: ReadCtl with
// no bound.
func (m *Mailbox) Read(p *sim.Proc) uint32 {
	v, _ := m.ReadCtl(p, sim.Ctl{})
	return v
}

// TryRead pops without stalling; ok reports whether an entry was present.
// The read-status check itself costs a mailbox read (the Co-Pilot's polling
// cost comes from here).
func (m *Mailbox) TryRead(p *sim.Proc) (v uint32, ok bool) {
	p.Advance(m.par.MailboxRead)
	return m.q.TryGet()
}

// TryWrite pushes without stalling; ok reports whether space existed.
func (m *Mailbox) TryWrite(p *sim.Proc, v uint32) bool {
	p.Advance(m.par.MailboxWrite)
	return m.q.TryPut(v)
}

// WriteCtl pushes one entry, stalling p while the mailbox is full, bounded
// by ctl — so a write to a full mailbox whose reader died cannot park
// forever. It is the one blocking write (Write is this
// call unbounded), and the fault hook is consulted here: a dropped word
// costs the write and reports success.
func (m *Mailbox) WriteCtl(p *sim.Proc, v uint32, ctl sim.Ctl) error {
	p.Advance(m.par.MailboxWrite)
	if m.hook != nil {
		drop, stall := m.hook()
		if stall > 0 {
			p.Advance(stall)
		}
		if drop {
			return nil
		}
	}
	return m.q.PutCtl(p, v, ctl)
}

// ReadCtl pops one entry, stalling p while the mailbox is empty, bounded by
// ctl. It returns sim.ErrTimeout when the deadline passes first.
// It is the one blocking read; Read is this call unbounded.
func (m *Mailbox) ReadCtl(p *sim.Proc, ctl sim.Ctl) (uint32, error) {
	p.Advance(m.par.MailboxRead)
	return m.q.GetCtl(p, ctl)
}

// ReadTimeout is Read bounded by a relative timeout; ok is false when the
// timeout expired before a word arrived.
func (m *Mailbox) ReadTimeout(p *sim.Proc, d sim.Time) (uint32, bool) {
	p.Advance(m.par.MailboxRead)
	return m.q.GetTimeout(p, d)
}

// Count reports the entries currently queued (spe_out_mbox_status).
func (m *Mailbox) Count() int { return m.q.Len() }

// Capacity reports the mailbox entry capacity.
func (m *Mailbox) Capacity() int { return m.q.Cap() }

// HighWater reports the largest occupancy the mailbox ever reached — the
// congestion watermark surfaced by the telemetry layer.
func (m *Mailbox) HighWater() int { return m.q.HighWater() }
