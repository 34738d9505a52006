package hostbench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The noise-aware regression guard. Host metrics are noisy in a way
// virtual metrics are not: wall time moves with CPU frequency, co-tenant
// load and GC scheduling. A single fixed threshold either cries wolf or
// sleeps through real regressions, so the guard compares
// median-of-iterations values and derives each metric's tolerance band
// from the baseline's own dispersion (MAD — median absolute deviation),
// floored per metric: wide for wall-clock-coupled metrics, tight for
// allocs/event, which is deterministic per workload and machine-stable.

// Metric names the host metrics the guard tracks per suite.
type Metric string

// Guarded metrics. Direction matters: wall and allocation metrics regress
// upward, events/sec regresses downward.
const (
	MetricWallNs         Metric = "wall_ns"
	MetricEventsPerSec   Metric = "events_per_sec"
	MetricAllocsPerEvent Metric = "allocs_per_event"
	MetricBytesPerEvent  Metric = "bytes_per_event"
)

// higherIsBetter reports the metric's good direction.
func (m Metric) higherIsBetter() bool { return m == MetricEventsPerSec }

// floor is the metric's minimum relative tolerance band: the noise level
// assumed even when the baseline's iterations happened to agree closely
// (e.g. a baseline recorded on an idle machine, compared on a loaded CI
// runner).
func (m Metric) floor() float64 {
	switch m {
	case MetricAllocsPerEvent:
		return 0.10 // deterministic per workload; 10% is a real change
	case MetricBytesPerEvent:
		return 0.15
	default:
		// Wall-coupled metrics swing hard on shared hardware (co-tenant
		// load, frequency scaling, goroutine scheduling); they gate only
		// gross regressions — allocs/event is the precise tripwire.
		return 0.50
	}
}

// GuardOptions tune the comparison.
type GuardOptions struct {
	// MADFactor scales the baseline's MAD into the tolerance band
	// (band = max(floor, MADFactor * MAD/median, RangeFactor * range/median)).
	// 0 selects 5 — roughly "outside anything the baseline's own
	// iterations did".
	MADFactor float64
	// RangeFactor scales the baseline's relative range (max-min over
	// median) into the band. With the few iterations a CI baseline
	// affords, MAD of a heavy-tailed wall-time distribution
	// underestimates its spread; the range is the robust small-n
	// complement. 0 selects 1.5.
	RangeFactor float64
	// FloorScale multiplies every per-metric floor; the -tolerance flag
	// maps onto it (1.0 = the defaults above). 0 selects 1.
	FloorScale float64
	// GateWall makes the wall-coupled metrics (wall_ns, events_per_sec)
	// fail the gate. By default they are advisory — reported, banded and
	// blamed, but not fatal: on shared hardware a co-tenant can double
	// wall time while allocs/event (deterministic per workload) moves
	// 0.1%, so the allocation metrics carry the gate and the wall
	// metrics carry the trend. Set on quiet dedicated runners.
	GateWall bool
}

func (o GuardOptions) withDefaults() GuardOptions {
	if o.MADFactor == 0 {
		o.MADFactor = 5
	}
	if o.RangeFactor == 0 {
		o.RangeFactor = 1.5
	}
	if o.FloorScale == 0 {
		o.FloorScale = 1
	}
	return o
}

// Median returns the median of vs (0 for an empty slice).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation of vs around its median.
func MAD(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	med := Median(vs)
	devs := make([]float64, len(vs))
	for i, v := range vs {
		devs[i] = math.Abs(v - med)
	}
	return Median(devs)
}

// rangeOf returns max - min of vs (0 for an empty slice).
func rangeOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return hi - lo
}

// metricValues extracts one metric's per-iteration samples.
func metricValues(sr SuiteResult, m Metric) []float64 {
	out := make([]float64, 0, len(sr.Iters))
	for _, it := range sr.Iters {
		switch m {
		case MetricWallNs:
			out = append(out, float64(it.WallNs))
		case MetricEventsPerSec:
			out = append(out, it.EventsPerSec)
		case MetricAllocsPerEvent:
			out = append(out, it.AllocsPerEvent)
		case MetricBytesPerEvent:
			out = append(out, it.BytesPerEvent)
		}
	}
	return out
}

// Delta is one (suite, metric) comparison row.
type Delta struct {
	Suite  string  `json:"suite"`
	Metric Metric  `json:"metric"`
	Base   float64 `json:"base"`
	Now    float64 `json:"now"`
	// Ratio is now/base - 1 (signed relative movement).
	Ratio float64 `json:"ratio"`
	// Band is the tolerance the row was judged against.
	Band float64 `json:"band"`
	// Regressed means the movement exceeded the band in the bad
	// direction; improvements never trip the guard.
	Regressed bool `json:"regressed"`
	// Advisory marks a wall-coupled row that reports but never fails the
	// gate (see GuardOptions.GateWall).
	Advisory bool `json:"advisory,omitempty"`
	// Blame names the subsystem whose host-time share grew most, set only
	// on regressed rows of suites with subsystem attribution.
	Blame string `json:"blame,omitempty"`
}

// Report is a full guard comparison.
type Report struct {
	Deltas []Delta
	// Missing lists suites present in only one of the two files (renamed
	// suite sets are reported, not silently skipped).
	Missing []string
}

// Regressions returns the rows that fail the gate (regressed and not
// advisory).
func (r Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed && !d.Advisory {
			out = append(out, d)
		}
	}
	return out
}

// Guard compares a current run against a committed baseline. It refuses,
// with an error, when the two runs saw a different CPU count or GOMAXPROCS:
// host cost per event moves with both, so such a comparison is not like
// with like.
func Guard(base, now File, opts GuardOptions) (Report, error) {
	b, n := base.Env, now.Env
	if b.NumCPU != n.NumCPU || b.GOMAXPROCS != n.GOMAXPROCS {
		return Report{}, fmt.Errorf("baseline recorded with num_cpu=%d gomaxprocs=%d, this run has num_cpu=%d gomaxprocs=%d; re-record the baseline on this host with 'make bench-host'",
			b.NumCPU, b.GOMAXPROCS, n.NumCPU, n.GOMAXPROCS)
	}
	opts = opts.withDefaults()
	var rep Report
	baseByName := map[string]SuiteResult{}
	for _, sr := range base.Suites {
		baseByName[sr.Name] = sr
	}
	seen := map[string]bool{}
	for _, cur := range now.Suites {
		seen[cur.Name] = true
		bs, ok := baseByName[cur.Name]
		if !ok {
			rep.Missing = append(rep.Missing, cur.Name+" (no baseline)")
			continue
		}
		for _, m := range []Metric{MetricWallNs, MetricEventsPerSec, MetricAllocsPerEvent, MetricBytesPerEvent} {
			bv, nv := metricValues(bs, m), metricValues(cur, m)
			bmed, nmed := Median(bv), Median(nv)
			if bmed == 0 {
				continue
			}
			band := m.floor() * opts.FloorScale
			if rel := opts.MADFactor * MAD(bv) / math.Abs(bmed); rel > band {
				band = rel
			}
			if rel := opts.RangeFactor * rangeOf(bv) / math.Abs(bmed); rel > band {
				band = rel
			}
			d := Delta{Suite: cur.Name, Metric: m, Base: bmed, Now: nmed, Band: band}
			if m == MetricWallNs || m == MetricEventsPerSec {
				d.Advisory = !opts.GateWall
			}
			d.Ratio = nmed/bmed - 1
			bad := d.Ratio > band
			if m.higherIsBetter() {
				bad = d.Ratio < -band
			}
			if bad {
				d.Regressed = true
				d.Blame = blameSubsys(bs, cur)
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	for _, bs := range base.Suites {
		if !seen[bs.Name] {
			rep.Missing = append(rep.Missing, bs.Name+" (not in current run)")
		}
	}
	return rep, nil
}

// blameSubsys names the subsystem whose share of the suite's host time
// grew most between baseline and current — the critpath blame-diff idea
// applied to wall-clock attribution. Counter-backed growth (allocs
// injected into the event loop, say) shows up in whichever bucket hosts
// the extra work.
func blameSubsys(base, now SuiteResult) string {
	best, bestGrowth := "", 0.0
	for name, share := range now.SubsysShare {
		if g := share - base.SubsysShare[name]; g > bestGrowth {
			best, bestGrowth = name, g
		}
	}
	if best == "" {
		return "kernel" // no attributed growth: the dispatch loop itself
	}
	return best
}

// FormatGuard renders the comparison as the per-suite/per-metric diff
// table the bench guard prints, regressed rows marked and blamed.
func FormatGuard(rep Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host guard (median of iterations, MAD-derived band):\n")
	fmt.Fprintf(&b, "  %-12s %-16s %12s %12s %8s %7s  %s\n",
		"suite", "metric", "baseline", "now", "delta", "band", "verdict")
	for _, d := range rep.Deltas {
		verdict := "ok"
		switch {
		case d.Regressed && d.Advisory:
			verdict = "slower (advisory, " + d.Blame + ")"
		case d.Regressed:
			verdict = "REGRESSED (" + d.Blame + ")"
		}
		fmt.Fprintf(&b, "  %-12s %-16s %12s %12s %+7.1f%% %6.0f%%  %s\n",
			d.Suite, d.Metric, fmtVal(d.Metric, d.Base), fmtVal(d.Metric, d.Now),
			100*d.Ratio, 100*d.Band, verdict)
	}
	for _, m := range rep.Missing {
		fmt.Fprintf(&b, "  suite mismatch: %s\n", m)
	}
	if regs := rep.Regressions(); len(regs) > 0 {
		fmt.Fprintf(&b, "  %d host metric(s) regressed:", len(regs))
		for _, d := range regs {
			fmt.Fprintf(&b, " %s/%s (blame: %s)", d.Suite, d.Metric, d.Blame)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTrend renders two artifacts side by side as a trend table —
// cellpilot-trace -host's output. Unlike the guard it applies no
// tolerance judgment; it just shows the movement of every suite's
// headline metrics plus the subsystem share shift.
func FormatTrend(base, now File) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host-cost trend (%s/%s, %d CPUs -> %d CPUs):\n",
		now.Env.GOOS, now.Env.GOARCH, base.Env.NumCPU, now.Env.NumCPU)
	fmt.Fprintf(&b, "  %-12s %-16s %12s %12s %8s\n", "suite", "metric", "base", "now", "delta")
	baseByName := map[string]SuiteResult{}
	for _, sr := range base.Suites {
		baseByName[sr.Name] = sr
	}
	for _, cur := range now.Suites {
		bs, ok := baseByName[cur.Name]
		if !ok {
			fmt.Fprintf(&b, "  %-12s (no baseline)\n", cur.Name)
			continue
		}
		for _, m := range []Metric{MetricEventsPerSec, MetricAllocsPerEvent, MetricWallNs} {
			bmed, nmed := Median(metricValues(bs, m)), Median(metricValues(cur, m))
			if bmed == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-12s %-16s %12s %12s %+7.1f%%\n",
				cur.Name, m, fmtVal(m, bmed), fmtVal(m, nmed), 100*(nmed/bmed-1))
		}
		if shift := shareShift(bs, cur); shift != "" {
			fmt.Fprintf(&b, "  %-12s %-16s %s\n", cur.Name, "subsys-shift", shift)
		}
	}
	return b.String()
}

// shareShift summarizes the largest subsystem share movements.
func shareShift(base, now SuiteResult) string {
	type mv struct {
		name  string
		delta float64
	}
	var moves []mv
	seen := map[string]bool{}
	for name := range now.SubsysShare {
		seen[name] = true
		moves = append(moves, mv{name, now.SubsysShare[name] - base.SubsysShare[name]})
	}
	for name := range base.SubsysShare {
		if !seen[name] {
			moves = append(moves, mv{name, -base.SubsysShare[name]})
		}
	}
	sort.Slice(moves, func(i, j int) bool {
		ai, aj := math.Abs(moves[i].delta), math.Abs(moves[j].delta)
		if ai != aj {
			return ai > aj
		}
		return moves[i].name < moves[j].name
	})
	var parts []string
	for _, m := range moves {
		if math.Abs(m.delta) < 0.02 {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %+0.1fpp", m.name, 100*m.delta))
		if len(parts) == 3 {
			break
		}
	}
	return strings.Join(parts, ", ")
}

// fmtVal renders a metric value in its natural unit.
func fmtVal(m Metric, v float64) string {
	switch m {
	case MetricWallNs:
		return fmt.Sprintf("%.1fms", v/1e6)
	case MetricEventsPerSec:
		return fmt.Sprintf("%.0f/s", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
