package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedUnlinked runs independent LPs with no links: no protocol
// overhead, full completion, deterministic per-LP results.
func TestShardedUnlinked(t *testing.T) {
	const n = 8
	var finals [n]Time
	s := NewSharded(4)
	for i := 0; i < n; i++ {
		i := i
		s.AddLP(fmt.Sprintf("r%d", i), func(lp *LP) error {
			k := NewKernel(int64(i))
			k.Spawn("work", func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Advance(Time(p.Rand().Intn(100)) * Nanosecond)
				}
			})
			if err := k.Run(); err != nil {
				return err
			}
			finals[i] = k.Now()
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var again [n]Time
	s2 := NewSharded(1)
	for i := 0; i < n; i++ {
		i := i
		s2.AddLP(fmt.Sprintf("r%d", i), func(lp *LP) error {
			k := NewKernel(int64(i))
			k.Spawn("work", func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Advance(Time(p.Rand().Intn(100)) * Nanosecond)
				}
			})
			if err := k.Run(); err != nil {
				return err
			}
			again[i] = k.Now()
			return nil
		})
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if finals != again {
		t.Fatalf("parallel %v != sequential %v", finals, again)
	}
}

// TestShardedErrorStopsFleet: one failing body fails the fleet's Run,
// and the reported error is that root cause, not a later LP's own
// failure.
func TestShardedErrorStopsFleet(t *testing.T) {
	boom := errors.New("boom")
	s := NewSharded(2)
	s.AddLP("bad", func(*LP) error {
		k := NewKernel(1)
		k.Spawn("fail", func(p *Proc) {
			p.Advance(Microsecond)
			p.Fatalf("boom")
		})
		if err := k.Run(); err != nil {
			return fmt.Errorf("%w: %v", boom, err)
		}
		return nil
	})
	s.AddLP("waiter", func(*LP) error {
		k := NewKernel(2)
		q := NewQueue[int](k, "never", 1)
		k.Spawn("wait", func(p *Proc) { q.Get(p) })
		return k.Run()
	})
	if err := s.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the root-cause failure", err)
	}
}

// TestShardedLocalDeadlock: an LP whose procs can never run again
// surfaces its kernel's standard deadlock report, and the other LP still
// completes.
func TestShardedLocalDeadlock(t *testing.T) {
	s := NewSharded(2)
	s.AddLP("stuck", func(*LP) error {
		k := NewKernel(1)
		q := NewQueue[int](k, "q", 0)
		k.Spawn("blocked", func(p *Proc) { q.Get(p) })
		return k.Run()
	})
	var fineEnd Time
	s.AddLP("fine", func(*LP) error {
		k := NewKernel(2)
		k.Spawn("quick", func(p *Proc) { p.Advance(Microsecond) })
		err := k.Run()
		fineEnd = k.Now()
		return err
	})
	err := s.Run()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("Run error = %v, want *ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "get on queue q") {
		t.Fatalf("deadlock report lost the park reason: %v", err)
	}
	if fineEnd != Microsecond {
		t.Fatalf("healthy LP ended at %s, want %s", fineEnd, Microsecond)
	}
}

// TestShardedFirstErrorInRegistrationOrder: every body runs even after an
// earlier one fails, and Run reports the first failure by registration
// order. With more than one worker, LP 1 fails only after LP 4 has, so
// host timing would pick the wrong error if Run reported by completion.
func TestShardedFirstErrorInRegistrationOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const n = 6
		var ran atomic.Int64
		lp4Failed := make(chan struct{})
		s := NewSharded(workers)
		for i := 0; i < n; i++ {
			s.AddLP(fmt.Sprintf("lp%d", i), func(*LP) error {
				ran.Add(1)
				switch i {
				case 1:
					if workers > 1 {
						<-lp4Failed
					}
					return errors.New("lp1 failed")
				case 4:
					close(lp4Failed)
					return errors.New("lp4 failed")
				}
				return nil
			})
		}
		err := s.Run()
		if err == nil || err.Error() != "lp1 failed" {
			t.Fatalf("workers=%d: Run error = %v, want lp1's", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Fatalf("workers=%d: %d bodies ran, want %d", workers, got, n)
		}
	}
}

// TestShardedWorkerBound: no more than `workers` bodies run at once.
func TestShardedWorkerBound(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var active, peak atomic.Int64
		s := NewSharded(workers)
		for i := 0; i < 12; i++ {
			s.AddLP(fmt.Sprintf("lp%d", i), func(*LP) error {
				now := active.Add(1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				active.Add(-1)
				return nil
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got < 1 || got > int64(workers) {
			t.Fatalf("workers=%d: peak concurrency %d", workers, got)
		}
	}
}

// TestShardedMisusePanics: a worker-less pool, AddLP after Run and a
// second Run all fail loudly.
func TestShardedMisusePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("NewSharded(0)", func() { NewSharded(0) })
	s := NewSharded(1)
	s.AddLP("a", func(*LP) error { return nil })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic("AddLP after Run", func() { s.AddLP("b", func(*LP) error { return nil }) })
	mustPanic("second Run", func() { s.Run() })
}
