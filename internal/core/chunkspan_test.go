package core

import (
	"strings"
	"testing"

	"cellpilot/internal/trace"
)

// chunkEvents groups the recorded per-chunk annotations (frame and
// mfc-dma) by owning stream id.
func chunkEvents(rec *trace.Recorder) map[int64][]trace.PhaseEvent {
	out := map[int64][]trace.PhaseEvent{}
	for _, pe := range rec.Phases() {
		if pe.Phase == trace.PhaseChunkFrame || pe.Phase == trace.PhaseChunkDMA {
			out[pe.Xfer] = append(out[pe.Xfer], pe)
		}
	}
	return out
}

// E-CS1: chunk annotations are self-describing — each carries the owning
// stream id and a 1-based chunk index — and the sampling filter keeps or
// drops a stream's chunk events atomically with the stream itself.
func TestChunkSpanSamplingConsistent(t *testing.T) {
	const payload = 64 << 10
	opts := Options{Transfer: TransferOptions{ChunkSize: 8 << 10}}

	full := trace.NewRecorder(0)
	runType1Bounce(t, payload, opts, full, 0)
	all := chunkEvents(full)
	if len(all) < 2 {
		t.Fatalf("chunked bounce produced %d streams with chunk events, want 2 (request + reply)", len(all))
	}
	for xfer, evs := range all {
		for _, pe := range evs {
			if pe.Stream != xfer || pe.Chunk < 1 {
				t.Fatalf("chunk annotation not self-describing: %+v", pe)
			}
		}
	}

	sampled := trace.NewRecorder(0)
	sampled.SetSampleEvery(2)
	runType1Bounce(t, payload, opts, sampled, 0)
	kept := chunkEvents(sampled)
	dropped := 0
	for xfer, evs := range all {
		if (xfer-1)%2 == 0 {
			// Retained stream: the full chunk set survives.
			if len(kept[xfer]) != len(evs) {
				t.Fatalf("stream %d kept %d of %d chunk events", xfer, len(kept[xfer]), len(evs))
			}
			continue
		}
		dropped++
		if n := len(kept[xfer]); n != 0 {
			t.Fatalf("sampled-out stream %d still has %d chunk events", xfer, n)
		}
	}
	if dropped == 0 {
		t.Fatal("no stream fell to the sampling filter; test exercises nothing")
	}
	if sampled.SampledOut() == 0 {
		t.Fatal("sampling filter reported nothing discarded")
	}
}

// E-CS2: a chunked run with a meter attached publishes the in-flight
// stream backlog gauges, live value plus high-water, for both directions.
func TestStreamInflightGauges(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{Transfer: TransferOptions{ChunkSize: 8 << 10}})
	meter := NewMeter()
	if err := a.SetMetrics(meter); err != nil {
		t.Fatal(err)
	}
	const payload = 64 << 10
	msg := make([]byte, payload)
	got := make([]byte, payload)
	var ab, ba *Channel
	peer := a.CreateProcessOn(1, "bounce_peer", func(ctx *Ctx, _ int, _ any) {
		buf := make([]byte, payload)
		ctx.Read(ab, "%65536b", buf)
		ctx.Write(ba, "%65536b", buf)
	}, 0, nil)
	ab = a.CreateChannel(a.Main(), peer)
	ba = a.CreateChannel(peer, a.Main())
	err := a.Run(func(ctx *Ctx) {
		ctx.Write(ab, "%65536b", msg)
		ctx.Read(ba, "%65536b", got)
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, g := range meter.Registry().GaugeNames() {
		if strings.HasPrefix(g, "copilot/stream/") {
			names[g] = true
		}
	}
	for _, want := range []string{
		"copilot/stream/inflight_send",
		"copilot/stream/inflight_send_highwater",
		"copilot/stream/inflight_recv",
		"copilot/stream/inflight_recv_highwater",
	} {
		if !names[want] {
			t.Fatalf("gauge %s missing; stream gauges: %v", want, names)
		}
	}
	if hw := meter.Registry().Gauge("copilot/stream/inflight_send_highwater").Value(); hw < 1 {
		t.Fatalf("send high-water %v, want >= 1 on a pipelined stream", hw)
	}
	if hw := meter.Registry().Gauge("copilot/stream/inflight_recv_highwater").Value(); hw < 1 {
		t.Fatalf("recv high-water %v, want >= 1 on a pipelined stream", hw)
	}
}
