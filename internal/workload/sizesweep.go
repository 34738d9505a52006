package workload

import (
	"sort"

	"cellpilot/internal/cluster"
	"cellpilot/internal/core"
	"cellpilot/internal/sim"
)

// SizeSweepConfig drives the transfer-engine size sweep: PingPong over
// every channel type across payload sizes from 64 B up, once with the
// chunk engine disabled (the paper-faithful protocol) and once enabled.
// The paired points quantify what the pipelined path buys per size and
// confirm the small-message latencies are untouched.
type SizeSweepConfig struct {
	// Reps is the number of timed round trips per point (default 20; the
	// simulation is deterministic, so samples differ only through backlog
	// effects and a handful suffice for stable quantiles).
	Reps int
	// Transfer is the chunked arm's engine configuration. A zero ChunkSize
	// selects the sweep default: 8 KiB chunks, depth 4, zero-copy type 4.
	Transfer core.TransferOptions
	// Sizes overrides the payload sizes (default 64 B .. 1 MiB, with
	// SPE-endpoint types capped at 128 KiB by the local-store budget).
	Sizes []int
	// Spec overrides the simulated cluster for every point (nil = the
	// paper's two-Cell + one-Xeon corner).
	Spec *cluster.Spec
}

// SizeSweepPoint is one (type, size, arm) measurement.
type SizeSweepPoint struct {
	Type    int
	Bytes   int
	Chunked bool
	// OneWayP50/P99 are quantiles over the per-round one-way latency
	// (round trip / 2) of the timed window.
	OneWayP50 sim.Time
	OneWayP99 sim.Time
	// BandwidthMBps is Bytes / OneWayP50.
	BandwidthMBps float64
}

// sizeSweepDefaults are the default sweep sizes. SPE-endpoint types stop
// at 128 KiB: a 256 KiB local store less the CellPilot runtime, code and
// stack cannot hold a larger transfer buffer.
var sizeSweepDefaults = []int{64, 256, 1024, 4096, 16384, 65536, 131072, 262144, 1048576}

// speSizeCap is the largest payload an SPE endpoint can stage in its
// local store alongside the runtime footprint.
const speSizeCap = 131072

func (c SizeSweepConfig) withDefaults() SizeSweepConfig {
	if c.Reps == 0 {
		c.Reps = 20
	}
	if c.Transfer.ChunkSize == 0 {
		c.Transfer = core.TransferOptions{ChunkSize: 8192, PipelineDepth: 4, ZeroCopyType4: true}
	}
	if c.Sizes == nil {
		c.Sizes = sizeSweepDefaults
	}
	return c
}

// SizeSweep measures every (type, size) cell with the chunk engine off and
// on. Points come out grouped by type, then size, baseline before chunked.
func SizeSweep(cfg SizeSweepConfig) ([]SizeSweepPoint, error) {
	cfg = cfg.withDefaults()
	var out []SizeSweepPoint
	for typ := 1; typ <= 5; typ++ {
		for _, bytes := range cfg.Sizes {
			if typ != 1 && bytes > speSizeCap {
				continue
			}
			for _, chunked := range []bool{false, true} {
				pp := PingPongConfig{
					Type: typ, Bytes: bytes, Method: MethodCellPilot, Reps: cfg.Reps,
					Spec: cfg.Spec,
				}
				if chunked {
					pp.Transfer = cfg.Transfer
				}
				var rtts []sim.Time
				pp.RoundTrips = &rtts
				if _, err := PingPong(pp); err != nil {
					return nil, err
				}
				p50, p99 := OneWayQuantiles(rtts)
				pt := SizeSweepPoint{
					Type: typ, Bytes: bytes, Chunked: chunked,
					OneWayP50: p50, OneWayP99: p99,
				}
				if p50 > 0 {
					pt.BandwidthMBps = float64(bytes) / (float64(p50) / float64(sim.Second)) / 1e6
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// OneWayQuantiles reduces per-round round-trip samples (as collected
// through PingPongConfig.RoundTrips) to exact one-way p50/p99: the
// sorted sample at index floor(q*(n-1)), halved.
func OneWayQuantiles(rtts []sim.Time) (p50, p99 sim.Time) {
	if len(rtts) == 0 {
		return 0, 0
	}
	s := append([]sim.Time(nil), rtts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) sim.Time {
		return s[int(q*float64(len(s)-1))] / 2
	}
	return at(0.5), at(0.99)
}
