package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler speed: one proc
// advancing b.N times (one heap event each).
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHandoff measures the rendezvous fast path: producer and
// consumer alternating through an unbuffered queue.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0)
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitch measures the goroutine ping-pong cost of the
// cooperative scheduler with many procs at one timestamp.
func BenchmarkContextSwitch(b *testing.B) {
	k := NewKernel(1)
	const procs = 64
	each := b.N/procs + 1
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < each; j++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeapPushPop measures the event queue alone: schedule b.N
// staggered callbacks, then drain them in timestamp order.
func BenchmarkHeapPushPop(b *testing.B) {
	k := NewKernel(1)
	for i := 0; i < b.N; i++ {
		// Staggered deadlines exercise real resort work rather than the
		// sorted-append fast path; the horizon grows with b.N so event
		// density per unit of virtual time stays constant — the shape a
		// simulator generates — instead of piling every event the bench
		// harness adds onto the same thousand timestamps.
		at := Time(i/1000)*Millisecond + Time((i*7919)%1000)*Microsecond
		k.After(at, func() {})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueChurn measures steady-state scheduling — a bounded
// population of in-flight timers with constant arm/fire churn, the shape
// Co-Pilot scan loops generate.
func BenchmarkQueueChurn(b *testing.B) {
	k := NewKernel(1)
	const fanout = 256
	n := b.N
	var arm func()
	fired := 0
	arm = func() {
		fired++
		if fired < n {
			k.After(Time(((fired*7919)%997)+1)*Microsecond, arm)
		}
	}
	for i := 0; i < fanout && i < n; i++ {
		k.After(Time(((i*6271)%997)+1)*Microsecond, arm)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerCancelPurge measures the cancelled-timer path, one op per
// timer, all inside the timed region: arm a deadline the way GetCtl/PutCtl
// do, cancel it before it fires, and pay its share of the purge — the bulk
// compaction that runs once cancelled timers outnumber half the live
// entries, plus the lazy at-the-head purge of the remainder when Run
// drains the queue. No cancelled callback ever runs.
func BenchmarkTimerCancelPurge(b *testing.B) {
	k := NewKernel(1)
	fired := func() { b.Error("cancelled timer fired") }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.afterTimer(Time(i%1000+1)*Microsecond, fired)
		tm.Cancel()
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventDispatch measures the full dispatch cycle — heap pop,
// clock advance, proc wake, park — for a single proc self-scheduling.
func BenchmarkEventDispatch(b *testing.B) {
	benchDispatch(b, nil)
}

// BenchmarkEventDispatchProbed is BenchmarkEventDispatch with a host
// probe attached; the delta against the unprobed run is the kernel's
// whole per-event hook cost. What a real profiler costs a whole run is the
// benchmark's hostprof.overhead_frac row (perfbench/README.md).
func BenchmarkEventDispatchProbed(b *testing.B) {
	benchDispatch(b, countingProbe{n: new(int)})
}

func benchDispatch(b *testing.B, probe HostProbe) {
	k := NewKernel(1)
	if probe != nil {
		k.SetHostProbe(probe)
	}
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// countingProbe is the cheapest possible HostProbe — the benchmark pair
// above isolates the kernel's hook-call overhead from any profiler logic.
type countingProbe struct{ n *int }

func (c countingProbe) Event()         { *c.n++ }
func (c countingProbe) HeapPush(int)   {}
func (c countingProbe) HeapPop()       {}
func (c countingProbe) CancelPurge()   {}
func (c countingProbe) SliceStart(int) {}
func (c countingProbe) SliceEnd(int)   {}
