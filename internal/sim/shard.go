package sim

import (
	"sync"
	"sync/atomic"
)

// Sharded runs independent logical processes (LPs) on a bounded pool of
// host goroutines. Each LP body builds and runs its own world — typically
// a private kernel with its own event queue, clock, procs and RNG — so the
// whole sequential machinery runs unmodified inside an LP.
//
// LPs must share no simulated state: nothing one body does may be
// observable by another. Under that contract each LP's result depends
// only on its own inputs, so a run with W workers is bit-for-bit
// identical to the same run with 1 worker.
type Sharded struct {
	lps     []*LP
	workers int
	started atomic.Bool
}

// LP is one logical process of a Sharded run.
type LP struct {
	name string
	body func(*LP) error
	err  error
}

// NewSharded creates a pool running at most workers LP bodies
// concurrently. workers < 1 panics; workers == 1 runs the bodies one after
// another in registration order.
func NewSharded(workers int) *Sharded {
	if workers < 1 {
		panic("sim: Sharded needs at least one worker")
	}
	return &Sharded{workers: workers}
}

// AddLP registers a logical process. body builds the LP's world and
// returns when its simulation is done. Must be called before Run.
func (s *Sharded) AddLP(name string, body func(*LP) error) *LP {
	if s.started.Load() {
		panic("sim: AddLP after Run")
	}
	lp := &LP{name: name, body: body}
	s.lps = append(s.lps, lp)
	return lp
}

// Name reports the LP's name.
func (lp *LP) Name() string { return lp.name }

// Run executes every LP body on at most `workers` goroutines and blocks
// until all complete. A failing body does not stop the others. Run
// returns the first (by LP registration order) non-nil body error, or nil.
func (s *Sharded) Run() error {
	if s.started.Swap(true) {
		panic("sim: Sharded.Run called twice")
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(s.workers, len(s.lps)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.lps) {
					return
				}
				lp := s.lps[i]
				lp.err = lp.body(lp)
			}
		}()
	}
	wg.Wait()
	for _, lp := range s.lps {
		if lp.err != nil {
			return lp.err
		}
	}
	return nil
}
