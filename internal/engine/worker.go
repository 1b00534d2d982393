package engine

// WorkerRound executes one rank's full round: the pattern's phases run back
// to back over the transport, each Recv blocking until the peer's deposit
// arrives. It is the whole executor of a one-rank-per-process deployment
// (the TCP worker); the in-process engine runs the same phases across many
// ranks with barriers in between.
//
// The transport must not retain a payload after Send returns (see
// Transport) — with no barrier between a rank's phases, the butterfly
// rewrites its chunk buffers while a by-reference receiver could still be
// reading them. st is the rank's phase scratch, reused round over round; the
// returned report aliases it and is valid until the next WorkerRound on the
// same st. pat nil defaults to the pairwise matched-gossip pattern. codecs
// is the shared per-rank codec table: the node encodes with
// codecs[ctx.Self] and decodes inbound payloads with the sender's codec.
func WorkerRound(node Node, pat Pattern, codecs []Codec, tr Transport, st *PhaseState, ctx RoundContext) (NodeReport, error) {
	if pat == nil {
		pat = Pairwise{}
	}
	st.reset()
	for p, phases := 0, pat.PhaseCount(ctx.Plan, ctx.N); p < phases; p++ {
		if err := pat.RunPhase(ctx, p, node, codecs, tr, st); err != nil {
			return NodeReport{}, err
		}
	}
	return st.Rep, nil
}
