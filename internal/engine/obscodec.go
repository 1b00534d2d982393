package engine

import (
	"time"

	"sapspsgd/internal/obs"
)

// The timed codec wrappers below are the engine's only per-call codec
// instrumentation points: every pattern funnels its
// Encode/Decode/DecodeInto calls through them. With observability off
// (the default) each wrapper costs one atomic pointer load and one nil
// check; enabled, it adds two monotonic clock reads and a histogram
// observation — atomics only, no allocation, nothing the codec's own
// determinism can see.

// encodeTimed runs c.Encode, observing the call latency in the global
// engine metrics when enabled.
func encodeTimed(c Codec, ctx RoundContext, out []float64) ([]float64, error) {
	em := obs.Current().EngineM()
	if em.CodecEncodeSeconds == nil {
		return c.Encode(ctx, out)
	}
	start := time.Now()
	words, err := c.Encode(ctx, out)
	em.CodecEncodeSeconds.Observe(time.Since(start).Seconds())
	return words, err
}

// decodeTimed runs c.Decode, observing the call latency in the global
// engine metrics when enabled.
func decodeTimed(c Codec, ctx RoundContext, words []float64) ([]float64, error) {
	em := obs.Current().EngineM()
	if em.CodecDecodeSeconds == nil {
		return c.Decode(ctx, words)
	}
	start := time.Now()
	vals, err := c.Decode(ctx, words)
	em.CodecDecodeSeconds.Observe(time.Since(start).Seconds())
	return vals, err
}

// decodeIntoTimed runs d.DecodeInto, observing the call latency in the
// global engine metrics when enabled.
func decodeIntoTimed(d DecoderInto, buf []float64, ctx RoundContext, words []float64) ([]float64, error) {
	em := obs.Current().EngineM()
	if em.CodecDecodeSeconds == nil {
		return d.DecodeInto(buf, ctx, words)
	}
	start := time.Now()
	out, err := d.DecodeInto(buf, ctx, words)
	em.CodecDecodeSeconds.Observe(time.Since(start).Seconds())
	return out, err
}
