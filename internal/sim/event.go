package sim

// event is a scheduled kernel action: either waking a parked proc or
// running a callback inside the scheduler.
type event struct {
	at  Time
	seq uint64 // tie-breaker: insertion order, for determinism
	// gen is the pool generation. It increments every time the event
	// object is recycled, so a stale Timer handle (cancelled after its
	// timer fired and the event was reused) can detect it points at a
	// different logical event and turn into a no-op.
	gen   uint32
	p     *Proc  // proc to wake, or nil
	epoch uint64 // p's wake epoch at scheduling; stale events are skipped
	fn    func() // callback to run in the scheduler, or nil
	// cancelled events are discarded without running and without
	// advancing the clock — a cancelled timeout must not extend a run's
	// final virtual time. They are purged lazily when they surface at the
	// head of the queue, or in bulk when they outnumber half of the live
	// entries (Kernel.noteCancel).
	cancelled bool
}

// eventLess is the kernel's total order: timestamp, then insertion
// sequence number.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxFreeEvents bounds the per-kernel event free list so a burst (a huge
// fan-out of timers) does not pin its high-water mark of event objects
// forever.
const maxFreeEvents = 1 << 14

// newEvent takes an event from the kernel's free list, or allocates one.
// Events never migrate between kernels: a Timer handle may touch its
// event's gen field from this kernel's execution context at any later
// point, so recycling through a cross-kernel pool would race under a
// parallel Sharded run.
func (k *Kernel) newEvent() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{}
}

// freeEvent recycles a popped event. Bumping gen invalidates any Timer
// handle still pointing here.
func (k *Kernel) freeEvent(ev *event) {
	ev.gen++
	ev.p = nil
	ev.fn = nil
	ev.epoch = 0
	ev.cancelled = false
	if len(k.free) < maxFreeEvents {
		k.free = append(k.free, ev)
	}
}

func (k *Kernel) schedule(at Time, p *Proc, fn func()) *event {
	if at < k.now {
		at = k.now
	}
	k.seq++
	ev := k.newEvent()
	ev.at, ev.seq, ev.p, ev.fn = at, k.seq, p, fn
	if p != nil {
		ev.epoch = p.epoch
	}
	k.pq.Push(ev)
	if k.host != nil {
		k.host.HeapPush(k.pq.Len())
	}
	return ev
}

// After schedules fn to run inside the scheduler after delay d. It must be
// called from scheduler context or before Run; procs should use Advance.
func (k *Kernel) After(d Time, fn func()) {
	k.schedule(k.now+d, nil, fn)
}

// Timer is a cancellable scheduled callback. Timeout/retransmit machinery
// needs cancellation: an armed-but-never-fired deadline must leave no
// trace in the virtual timeline once the guarded operation completes.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint32
}

// AfterTimer is After returning a handle that can cancel the callback.
func (k *Kernel) AfterTimer(d Time, fn func()) *Timer {
	t := k.afterTimer(d, fn)
	return &t
}

// afterTimer is AfterTimer by value, for internal callers (GetCtl/PutCtl)
// that arm and cancel a deadline on every bounded operation and must not
// allocate a Timer each time.
func (k *Kernel) afterTimer(d Time, fn func()) Timer {
	ev := k.schedule(k.now+d, nil, fn)
	return Timer{k: k, ev: ev, gen: ev.gen}
}

// Cancel discards the timer. The event stays queued but is purged without
// running or advancing the clock — lazily when it reaches the head, or in
// bulk once cancelled entries outnumber half the live ones. Safe to call
// more than once and after the timer fired.
func (t *Timer) Cancel() {
	if t == nil || t.ev == nil {
		return
	}
	ev := t.ev
	t.ev = nil
	if ev.gen != t.gen || ev.cancelled {
		// The timer already fired (the event was recycled, possibly into
		// a new role) or was already cancelled.
		return
	}
	ev.cancelled = true
	ev.fn = nil
	t.k.noteCancel()
}
