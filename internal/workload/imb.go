package workload

import (
	"fmt"

	"cellpilot/internal/cellbe"
	"cellpilot/internal/cluster"
	"cellpilot/internal/mpi"
	"cellpilot/internal/sim"
)

// The paper measures with the Intel MPI Benchmarks' PingPong, "the
// classical pattern used for measuring startup and throughput of a single
// message sent between two processes". This file implements the wider
// classic IMB-MPI1 pattern set over the simulated MPI substrate, for
// benchmarking the transport underneath Pilot.

// IMBPattern selects a benchmark pattern.
type IMBPattern int

// IMB-MPI1 patterns.
const (
	// IMBPingPong: two ranks, one message bouncing (reports one-way time).
	IMBPingPong IMBPattern = iota
	// IMBPingPing: two ranks sending to each other simultaneously.
	IMBPingPing
	// IMBSendRecv: a periodic chain; each rank receives from the left and
	// sends to the right each iteration.
	IMBSendRecv
	// IMBExchange: each rank exchanges with both neighbours per iteration.
	IMBExchange
	// IMBBcast: root broadcasts to all ranks.
	IMBBcast
	// IMBAllreduce: all ranks combine a vector.
	IMBAllreduce
	// IMBBarrier: synchronization only (Bytes ignored).
	IMBBarrier
)

// String implements fmt.Stringer.
func (p IMBPattern) String() string {
	switch p {
	case IMBPingPong:
		return "PingPong"
	case IMBPingPing:
		return "PingPing"
	case IMBSendRecv:
		return "SendRecv"
	case IMBExchange:
		return "Exchange"
	case IMBBcast:
		return "Bcast"
	case IMBAllreduce:
		return "Allreduce"
	case IMBBarrier:
		return "Barrier"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// IMBConfig describes one IMB measurement.
type IMBConfig struct {
	Pattern IMBPattern
	// Ranks is the process count (2 for PingPong/PingPing).
	Ranks int
	// Bytes is the message size.
	Bytes int
	// Reps is the iteration count.
	Reps int
	// Params overrides the calibration.
	Params *cellbe.Params
	// Nodes overrides the cluster's node count. 0 keeps the default
	// (min(Ranks, 8), the paper testbed's Cell node count); larger values
	// build bigger clusters, as a scenario's topology asks for.
	Nodes int
}

// IMBResult is one measurement.
type IMBResult struct {
	Config IMBConfig
	// AvgTime is the per-iteration time (one-way for PingPong).
	AvgTime sim.Time
	// MBps is Bytes/AvgTime where meaningful.
	MBps float64
}

func (cfg IMBConfig) withDefaults() (IMBConfig, error) {
	switch cfg.Pattern {
	case IMBPingPong, IMBPingPing:
		if cfg.Ranks == 0 {
			cfg.Ranks = 2
		}
		if cfg.Ranks != 2 {
			return cfg, fmt.Errorf("workload: %s needs exactly 2 ranks", cfg.Pattern)
		}
	default:
		if cfg.Ranks == 0 {
			cfg.Ranks = 4
		}
		if cfg.Ranks < 2 {
			return cfg, fmt.Errorf("workload: %s needs at least 2 ranks", cfg.Pattern)
		}
	}
	if cfg.Reps == 0 {
		cfg.Reps = 1000
	}
	if cfg.Params == nil {
		cfg.Params = cellbe.DefaultParams()
	}
	return cfg, nil
}

// IMB runs one pattern on a fresh cluster (one PPE rank per Cell node,
// wrapping when ranks exceed nodes).
func IMB(cfg IMBConfig) (IMBResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return IMBResult{}, err
	}
	nodes := cfg.Ranks
	if nodes > 8 {
		nodes = 8 // the paper testbed's Cell node count
	}
	if cfg.Nodes > 0 {
		nodes = cfg.Nodes
	}
	clu, err := cluster.New(cluster.Spec{CellNodes: nodes, Params: cfg.Params, Seed: 5})
	if err != nil {
		return IMBResult{}, err
	}
	placements := make([]mpi.Placement, cfg.Ranks)
	for i := range placements {
		placements[i] = mpi.Placement{Node: i % nodes, Label: fmt.Sprintf("imb%d", i)}
	}
	w, err := mpi.NewWorld(clu, placements)
	if err != nil {
		return IMBResult{}, err
	}

	var total sim.Time
	rounds := cfg.Reps + 1 // one warmup round
	buf := make([]byte, cfg.Bytes)
	n := cfg.Ranks
	body := func(p *sim.Proc, id int) {
		r := w.Rank(id)
		var start sim.Time
		for it := 0; it < rounds; it++ {
			if it == 1 && id == 0 {
				start = p.Now()
			}
			switch cfg.Pattern {
			case IMBPingPong:
				if id == 0 {
					r.Send(p, 1, 0, buf)
					r.Recv(p, 1, 0)
				} else {
					data, _ := r.Recv(p, 0, 0)
					r.Send(p, 0, 0, data)
				}
			case IMBPingPing:
				r.Sendrecv(p, 1-id, 0, buf, 1-id, 0)
			case IMBSendRecv:
				right := (id + 1) % n
				left := (id - 1 + n) % n
				r.Sendrecv(p, right, 0, buf, left, 0)
			case IMBExchange:
				right := (id + 1) % n
				left := (id - 1 + n) % n
				q1 := r.Irecv(p, left, 1)
				q2 := r.Irecv(p, right, 2)
				s1 := r.Isend(p, right, 1, buf)
				s2 := r.Isend(p, left, 2, buf)
				r.Waitall(p, []*mpi.Request{q1, q2, s1, s2})
			case IMBBcast:
				var in []byte
				if id == 0 {
					in = buf
				}
				r.Bcast(p, 0, in)
			case IMBAllreduce:
				contrib := make([]byte, cfg.Bytes)
				r.Allreduce(p, contrib, func(acc, in []byte) {
					for i := range acc {
						acc[i] += in[i]
					}
				})
			case IMBBarrier:
				r.Barrier(p)
			}
		}
		if id == 0 {
			total = p.Now() - start
		}
	}
	for i := 0; i < cfg.Ranks; i++ {
		i := i
		clu.K.Spawn(fmt.Sprintf("imb%d", i), func(p *sim.Proc) { body(p, i) })
	}
	if err := clu.K.Run(); err != nil {
		return IMBResult{}, err
	}
	avg := total / sim.Time(cfg.Reps)
	if cfg.Pattern == IMBPingPong {
		avg /= 2 // IMB reports PingPong as one-way
	}
	res := IMBResult{Config: cfg, AvgTime: avg}
	if cfg.Bytes > 0 && avg > 0 && cfg.Pattern != IMBBarrier {
		res.MBps = float64(cfg.Bytes) / (float64(avg) / float64(sim.Second)) / 1e6
	}
	return res, nil
}

// IMBSweep runs a pattern across message sizes, IMB-style.
func IMBSweep(pattern IMBPattern, ranks int, sizes []int, reps int) ([]IMBResult, error) {
	var out []IMBResult
	for _, sz := range sizes {
		r, err := IMB(IMBConfig{Pattern: pattern, Ranks: ranks, Bytes: sz, Reps: reps})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
