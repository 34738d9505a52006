package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestAdvanceOrdering(t *testing.T) {
	k := NewKernel(1)
	var log []string
	k.Spawn("a", func(p *Proc) {
		p.Advance(10 * Microsecond)
		log = append(log, fmt.Sprintf("a@%s", p.Now()))
	})
	k.Spawn("b", func(p *Proc) {
		p.Advance(5 * Microsecond)
		log = append(log, fmt.Sprintf("b@%s", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@5.000us", "a@10.000us"}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if k.Now() != 10*Microsecond {
		t.Fatalf("final time %s, want 10us", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(Microsecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time not FIFO: %v", order)
		}
	}
}

func TestZeroAdvanceYield(t *testing.T) {
	k := NewKernel(1)
	var log []string
	k.Spawn("a", func(p *Proc) {
		log = append(log, "a1")
		p.Yield()
		log = append(log, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		log = append(log, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(log, ",")
	if got != "a1,b1,a2" {
		t.Fatalf("log = %s, want a1,b1,a2", got)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel(1)
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Advance(3 * Microsecond)
		k.Spawn("child", func(c *Proc) {
			c.Advance(4 * Microsecond)
			childTime = c.Now()
		})
		p.Advance(Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 7*Microsecond {
		t.Fatalf("child finished at %s, want 7us", childTime)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0)
	k.Spawn("stuck", func(p *Proc) {
		q.Get(p) // nobody ever puts
	})
	err := k.Run()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0].Name != "stuck" {
		t.Fatalf("blocked = %+v", dl.Blocked)
	}
	if !strings.Contains(dl.Blocked[0].Reason, "queue q") {
		t.Fatalf("reason %q does not mention queue q", dl.Blocked[0].Reason)
	}
}

func TestAbortUnwindsAllProcs(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q", 0)
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { q.Get(p) })
	}
	k.Spawn("killer", func(p *Proc) {
		p.Advance(Microsecond)
		p.Fatalf("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	if k.Live() != 0 {
		t.Fatalf("live procs after abort: %d", k.Live())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Advance(Millisecond)
			ticks++
		}
	})
	if err := k.RunUntil(10*Millisecond + Microsecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*Millisecond+Microsecond {
		t.Fatalf("now = %s", k.Now())
	}
	// Resume to the next deadline; state must be preserved.
	if err := k.RunUntil(20 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 20 {
		t.Fatalf("ticks after resume = %d, want 20", ticks)
	}
	k.Abort(errors.New("test done"))
	_ = k.RunUntil(Forever)
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		q := NewQueue[int](k, "q", 2)
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				p.Advance(Time(p.Rand().Intn(100)) * Microsecond)
				q.Put(p, i)
			})
		}
		k.Spawn("cons", func(p *Proc) {
			for n := 0; n < 4; n++ {
				v := q.Get(p)
				log = append(log, fmt.Sprintf("%d@%s", v, p.Now()))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestPanicInProcAborts(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) {
		panic("kapow")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kapow") {
		t.Fatalf("err = %v, want panic value surfaced", err)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d after panic abort", k.Live())
	}
}

// TestRunLeavesNoGoroutines: however a run ends, every proc is driven to
// completion, so the host goroutine count returns to where it started.
// The aborted runs each hold a proc whose first activation never came.
func TestRunLeavesNoGoroutines(t *testing.T) {
	late := func(k *Kernel) { k.SpawnAfter("late", Second, func(*Proc) {}) }
	cases := []struct {
		name    string
		wantErr bool
		run     func() error
	}{
		{"normal", false, func() error {
			k := NewKernel(1)
			k.Spawn("a", func(p *Proc) { p.Advance(Microsecond) })
			return k.Run()
		}},
		{"abort", true, func() error {
			k := NewKernel(1)
			late(k)
			k.Spawn("a", func(p *Proc) { p.Advance(Millisecond) })
			k.After(Microsecond, func() { k.Abort(errors.New("stop")) })
			return k.Run()
		}},
		{"fatalf", true, func() error {
			k := NewKernel(1)
			late(k)
			k.Spawn("a", func(p *Proc) { p.Fatalf("boom") })
			return k.Run()
		}},
		{"panic", true, func() error {
			k := NewKernel(1)
			late(k)
			k.Spawn("a", func(p *Proc) { panic("boom") })
			return k.Run()
		}},
		{"kill", false, func() error {
			k := NewKernel(1)
			q := NewQueue[int](k, "never", 1)
			victim := k.Spawn("victim", func(p *Proc) { q.Get(p) })
			k.After(Microsecond, victim.Kill)
			return k.Run()
		}},
		{"deadlock", true, func() error {
			k := NewKernel(1)
			q := NewQueue[int](k, "never", 1)
			k.Spawn("a", func(p *Proc) { q.Get(p) })
			return k.Run()
		}},
		{"sharded-stopped", true, func() error {
			s := NewSharded(2)
			bad := s.AddLP("bad", func(lp *LP) error {
				k := NewKernel(1)
				lp.Attach(k)
				late(k)
				k.Spawn("fail", func(p *Proc) {
					p.Advance(Microsecond)
					p.Fatalf("boom")
				})
				return k.Run()
			})
			waiter := s.AddLP("waiter", func(lp *LP) error {
				k := NewKernel(2)
				lp.Attach(k)
				late(k)
				q := NewQueue[int](k, "never", 1)
				k.Spawn("wait", func(p *Proc) { q.Get(p) })
				return k.Run()
			})
			s.Link(bad, waiter, Microsecond)
			s.Link(waiter, bad, Microsecond)
			return s.Run()
		}},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		if err := c.run(); (err != nil) != c.wantErr {
			t.Errorf("%s: Run error = %v, want error: %v", c.name, err, c.wantErr)
		}
		// Goroutines that are exiting (Sharded workers, here or in an
		// earlier test) may take a moment to be reaped; leaked ones never
		// are.
		for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after the run, %d before", c.name, n, base)
		}
	}
}
