package fed

import (
	"fmt"
	"strings"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GossipRound performs one neighborhood-averaging step over a Ring
// network: every agent broadcasts its base parameters to its two ring
// neighbors and replaces them with the mean of {own, received}. One round
// moves O(n) messages (vs O(n²) for DecentralizedRound); information
// diffuses around the ring, so repeated rounds converge geometrically to
// the global mean while each round leaves agents *locally* smoothed.
//
// This is the standard gossip-averaging alternative to the paper's
// all-to-all broadcast; the topology ablation bench compares the two.
// alpha selects the shared trainable-layer prefix as in DecentralizedRound.
//
// The round degrades the same way DecentralizedRound does: corrupt or
// diverged neighbor sets are quarantined into the report, crashed agents
// sit the round out, and an agent averaging zero sets keeps its current
// parameters. The round still completes for every other agent in that
// case; the returned error then names each starved agent and itemizes
// exactly which senders and kinds were rejected and why.
func GossipRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int) (RoundReport, error) {
	var rep RoundReport
	if net.Config().Topology != fednet.Ring {
		return rep, fmt.Errorf("fed: GossipRound requires a ring network, have %v", net.Config().Topology)
	}
	if net.N() != len(models) {
		return rep, fmt.Errorf("fed: %d models for %d network agents", len(models), net.N())
	}
	n := len(models)
	if n == 1 {
		return RoundReport{Agents: 1, MinSets: 1, MaxSets: 1}, nil
	}
	rep.PartialExchange = true
	live := make([]bool, n)
	for i := range models {
		if net.AgentDown(i) {
			rep.Crashed++
			continue
		}
		live[i] = true
		rep.Agents++
	}
	st0 := net.Stats()
	snaps := make([][]*tensor.Matrix, n)
	for i, m := range models {
		if !live[i] {
			continue
		}
		snaps[i] = nn.CloneParams(baseParams(m, alpha))
		if err := net.Broadcast(i, kind, MarshalParams(snaps[i])); err != nil {
			return rep, err
		}
	}
	st := net.Stats()
	rep.BytesSent = st.BytesSent - st0.BytesSent
	rep.Messages = st.MessagesSent - st0.MessagesSent
	rep.DenseBytes = rep.BytesSent
	var starved []int
	for i, m := range models {
		if !live[i] {
			continue
		}
		base := baseParams(m, alpha)
		inbox := net.Collect(i)
		for _, msg := range inbox {
			if msg.Kind == kind {
				rep.BytesReceived += int64(len(msg.Payload))
			}
		}
		sets := rep.collectFrom(inbox, i, base, kind, snaps[i])
		rep.countSets(nn.AverageParamSets(base, sets...))
		if len(sets) == 0 {
			starved = append(starved, i)
		}
	}
	if len(starved) > 0 {
		msgs := make([]string, len(starved))
		for si, i := range starved {
			msgs[si] = fmt.Sprintf("agent %d averaged zero sets — %s", i, rep.rejectsFor(i))
		}
		return rep, fmt.Errorf("fed: gossip round (kind %q) starved %d of %d agents (%s): %w",
			kind, len(starved), rep.Agents, strings.Join(msgs, " | "), ErrRoundStarved)
	}
	return rep, nil
}

// GossipDisagreement measures how far a model fleet is from consensus: the
// maximum over agents of the L2 distance between an agent's base parameters
// and the fleet mean, normalized by the mean's norm. Tests and ablations
// use it to track gossip convergence.
func GossipDisagreement(models []*nn.Sequential, alpha int) float64 {
	n := len(models)
	if n == 0 {
		return 0
	}
	mean := nn.CloneParams(baseParams(models[0], alpha))
	sets := make([][]*tensor.Matrix, n)
	for i, m := range models {
		sets[i] = nn.CloneParams(baseParams(m, alpha))
	}
	nn.AverageParamSets(mean, sets...)
	meanNorm := 0.0
	for _, p := range mean {
		v := p.Norm2()
		meanNorm += v * v
	}
	if meanNorm == 0 {
		meanNorm = 1
	}
	worst := 0.0
	for _, set := range sets {
		d := 0.0
		for pi, p := range set {
			diff := tensor.Sub(p, mean[pi])
			v := diff.Norm2()
			d += v * v
		}
		if d > worst {
			worst = d
		}
	}
	return worst / meanNorm
}
