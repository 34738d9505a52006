// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated entities ("procs") run as coroutines the scheduler resumes,
// so exactly one proc (or the scheduler itself) runs at any instant:
// simulated code needs no locking and every run of the same program is
// bit-for-bit deterministic.
// Time is virtual: it only advances when procs block on a kernel primitive
// (Advance, queue operations, semaphores, events, resources).
//
// The kernel is the substrate for the Cell BE cluster model: processors,
// NICs, buses, MPI ranks and Pilot processes are all sim procs, and every
// hardware or protocol latency is charged as virtual time.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations use the same type.
type Time int64

// Common durations, mirroring time.Duration's constants but for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Forever is a time later than any event the kernel will schedule.
const Forever Time = 1<<63 - 1

// Micros reports t as a floating-point number of microseconds. It is the
// unit the paper reports latencies in.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with a convenient unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}
