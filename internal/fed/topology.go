package fed

// Scalable federation rounds over the fednet topology layer (DESIGN.md
// §12): sampled gossip reuses the overlapped decentralized round machinery
// over a per-epoch random-k graph, and hierarchical cluster aggregation
// adds a two-level reduce — members → aggregator → aggregator mesh →
// members — that moves (n−C) + C·(C−1) + C′ messages per round instead of
// n·(n−1). Both degrade gracefully under the fault plan exactly like the
// flat rounds, and both speak either dense PFP1 or the PFW2 compressed
// plane through a RoundWorkspace's Exchange.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// BeginSampledGossipRound starts one random-k gossip exchange: the network
// advances to a fresh topology epoch (each agent draws k new peers,
// deterministically from the fabric seed), then the standard overlapped
// decentralized round runs over that graph — each agent broadcasts to its
// k sampled peers and averages its own snapshot with whatever arrives.
// One round moves n·k messages; resampling every round makes the union of
// successive graphs well connected, so the fleet still contracts to
// consensus geometrically (the convergence suite pins the rate).
//
// Everything else — FedPer alpha split, graceful degradation, compressed
// comms via ws.Comms, byte/message accounting — is inherited from
// BeginDecentralizedRound. The caller must Join the result before touching
// the models.
func BeginSampledGossipRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int, ws *RoundWorkspace) *PendingRound {
	if net.Config().Topology != fednet.Sampled {
		p := &PendingRound{done: make(chan struct{})}
		p.err = fmt.Errorf("fed: SampledGossipRound requires a sampled network, have %v", net.Config().Topology)
		close(p.done)
		return p
	}
	net.AdvanceRoundEpoch()
	return BeginDecentralizedRound(net, models, kind, alpha, ws)
}

// SampledGossipRound is the synchronous form of BeginSampledGossipRound:
// it starts the round and immediately joins it.
func SampledGossipRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int) (RoundReport, error) {
	return BeginSampledGossipRound(net, models, kind, alpha, nil).Join()
}

// ClusterRound performs one hierarchical aggregation exchange over a
// Cluster network (Briggs-style clustered FL):
//
//  1. upload — every live member ships its base-parameter snapshot to its
//     cluster's aggregator (kind);
//  2. cluster reduce — each aggregator averages its own snapshot with the
//     valid uploads into a cluster mean;
//  3. summary exchange — aggregators with a non-empty cluster mean unicast
//     it to every other aggregator (kind+"/sum");
//  4. global reduce — each aggregator averages its cluster mean with the
//     valid summaries (a mean of cluster means: exactly the global mean
//     when clusters are equal-sized, and a cluster-uniform estimator
//     otherwise) and installs the result;
//  5. download — each aggregator multicasts the global estimate once onto
//     its cluster's shared segment (kind+"/dl"); live members validate and
//     install it.
//
// Degradation mirrors the flat rounds: crashed members sit the round out;
// a crashed aggregator idles its whole cluster (members keep their
// parameters and count zero sets); corrupt or diverged payloads are
// quarantined into the report at every hop; an aggregator left with
// nothing to average keeps its parameters and sends no download. The
// error is reserved for structural misuse (wrong topology, model-count
// mismatch, codec failure).
//
// With ws.Comms set, every hop runs the PFW2 codec — per-(sender,kind)
// delta references, so uploads, summaries, and downloads each form their
// own reference chain — and the lossless Delta level is bit-identical to
// the dense path. In the report, MinSets/MaxSets bound each agent's
// effective participation: the number of original member sets its
// installed estimate represents (the fleet size on a clean fabric, like
// the centralized hub count; 0 for an agent the round never reached).
func ClusterRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int, ws *RoundWorkspace) (rep RoundReport, err error) {
	if net.Config().Topology != fednet.Cluster {
		return rep, fmt.Errorf("fed: ClusterRound requires a cluster network, have %v", net.Config().Topology)
	}
	if net.N() != len(models) {
		return rep, fmt.Errorf("fed: %d models for %d network agents", len(models), net.N())
	}
	n := len(models)
	if n == 1 {
		return RoundReport{Agents: 1, MinSets: 1, MaxSets: 1}, nil
	}
	if ws == nil {
		ws = &RoundWorkspace{}
	} else if ws.inFlight {
		panic("fed: ClusterRound: workspace round still pending (Join it first)")
	}
	var begin time.Time
	if ws.Tel != nil {
		begin = time.Now()
	}
	ws.ensureAgents(n)
	advRound := -1
	if ws.Adv != nil {
		advRound = ws.Adv.BeginRound(kind)
	}
	clusters := net.Clusters()
	sumKind, dlKind := kind+"/sum", kind+"/dl"

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
	defer func() {
		st := net.Stats()
		rep.BytesSent = st.BytesSent - st0.BytesSent
		rep.Messages = st.MessagesSent - st0.MessagesSent
		if ws.Comms != nil && rep.Messages > 0 {
			rep.DenseBytes = int64(rep.Messages) * int64(wire.DenseSize(baseParams(models[0], alpha)))
		} else {
			rep.DenseBytes = rep.BytesSent
		}
		if ws.Tel != nil {
			ws.Tel.observeJoin(begin, 0, rep)
		}
	}()

	// Phase 1: snapshot everyone, members upload to their aggregator. A
	// member with diverged parameters withholds its upload (mirroring the
	// centralized round); a member whose aggregator is crashed has nowhere
	// to send and idles this round.
	for _, members := range clusters {
		agg := members[0]
		for _, i := range members {
			if !live[i] {
				continue
			}
			base := baseParams(models[i], alpha)
			ws.snaps[i] = ensureParamsLike(ws.snaps[i], base)
			nn.CopyParams(ws.snaps[i], base)
			if i == agg {
				continue // the aggregator's snapshot joins the reduce locally
			}
			if !live[agg] {
				continue
			}
			if !paramsClean(ws.snaps[i]) {
				rep.reject(agg, i, kind, "NaN/Inf parameters (upload withheld)", false)
				continue
			}
			// A Byzantine member poisons only its upload; compromised
			// aggregators (phases 2–5) are out of scope — the plan's
			// Validate does not forbid listing one, but its summary and
			// download hops ship honest aggregates.
			payload := ws.snaps[i]
			if ws.Adv != nil {
				payload = ws.Adv.PayloadFor(i, kind, advRound, ws.snaps[i])
			}
			var err error
			if ws.Comms != nil {
				ws.marshal[i], err = ws.Comms.EncodeInto(ws.marshal[i][:0], i, kind, payload)
				if err != nil {
					return rep, fmt.Errorf("fed: encoding agent %d upload: %w", i, err)
				}
			} else {
				ws.marshal[i] = MarshalParamsInto(ws.marshal[i], payload)
			}
			if _, err := net.SendReliable(i, agg, kind, ws.marshal[i]); err != nil {
				return rep, err
			}
		}
	}

	// Phase 2: each live aggregator reduces its cluster — own snapshot
	// plus the uploads that arrived and validated — into ws.staged[agg].
	// meanSets[c] is the reduce's set count; 0 marks a starved cluster
	// (no summary to offer, but it still listens for others').
	meanSets := make([]int, len(clusters))
	for c, members := range clusters {
		agg := members[0]
		if !live[agg] {
			continue
		}
		base := baseParams(models[agg], alpha)
		ws.staged[agg] = ensureParamsLike(ws.staged[agg], base)
		inbox := net.Collect(agg)
		for _, msg := range inbox {
			if msg.Kind == kind {
				rep.BytesReceived += int64(len(msg.Payload))
			}
		}
		meanSets[c], _ = foldRound(&rep, ws, agg, kind, base, ws.snaps[agg], inbox, ws.staged[agg])
	}

	// Phase 3: summary exchange over the aggregator mesh.
	for c, members := range clusters {
		agg := members[0]
		if !live[agg] || meanSets[c] == 0 {
			continue
		}
		var err error
		if ws.Comms != nil {
			ws.marshal[agg], err = ws.Comms.EncodeInto(ws.marshal[agg][:0], agg, sumKind, ws.staged[agg])
			if err != nil {
				return rep, fmt.Errorf("fed: encoding cluster %d summary: %w", c, err)
			}
		} else {
			ws.marshal[agg] = MarshalParamsInto(ws.marshal[agg], ws.staged[agg])
		}
		for c2, peers := range clusters {
			if c2 == c || !live[peers[0]] {
				continue
			}
			if _, err := net.SendReliable(agg, peers[0], sumKind, ws.marshal[agg]); err != nil {
				return rep, err
			}
		}
	}

	// Phase 4: global reduce. Each live aggregator averages its own cluster
	// mean with the summaries that arrived; the result (folded into the
	// freed snapshot buffer) is its global estimate. Zero inputs — starved
	// cluster and no summaries — leaves the aggregator untouched.
	//
	// effective[c] is the participation the estimate represents: the sum of
	// the member-set counts behind every cluster mean folded. On a clean
	// fabric it equals the live fleet size for every cluster, mirroring the
	// centralized round's hub count, so MinSets == Agents and the round
	// does not read as degraded.
	globalSets := make([]int, len(clusters))
	effective := make([]int, len(clusters))
	for c, members := range clusters {
		agg := members[0]
		if !live[agg] {
			continue
		}
		base := baseParams(models[agg], alpha)
		inbox := net.Collect(agg)
		for _, msg := range inbox {
			if msg.Kind == sumKind {
				rep.BytesReceived += int64(len(msg.Payload))
			}
		}
		var own []*tensor.Matrix
		if meanSets[c] > 0 {
			own = ws.staged[agg]
		}
		var froms []int
		globalSets[c], froms = foldRound(&rep, ws, agg, sumKind, base, own, inbox, ws.snaps[agg])
		if globalSets[c] > 0 {
			nn.CopyParams(base, ws.snaps[agg])
		}
		effective[c] = meanSets[c]
		for _, from := range froms {
			effective[c] += meanSets[net.ClusterOf(from)]
		}
		rep.countSets(effective[c])
	}

	// Phase 5: download. One multicast per multi-member cluster puts the
	// global estimate on the shared segment; live members validate and
	// install. Members of a crashed or starved aggregator keep their
	// parameters and count zero sets.
	for c, members := range clusters {
		agg := members[0]
		var tos []int
		for _, i := range members {
			if i != agg && live[i] {
				tos = append(tos, i)
			}
		}
		if len(tos) == 0 {
			continue
		}
		if !live[agg] || globalSets[c] == 0 {
			for range tos {
				rep.countSets(0)
			}
			continue
		}
		var err error
		if ws.Comms != nil {
			ws.marshal[agg], err = ws.Comms.EncodeInto(ws.marshal[agg][:0], agg, dlKind, baseParams(models[agg], alpha))
			if err != nil {
				return rep, fmt.Errorf("fed: encoding cluster %d download: %w", c, err)
			}
		} else {
			ws.marshal[agg] = MarshalParamsInto(ws.marshal[agg], baseParams(models[agg], alpha))
		}
		if _, err := net.Multicast(agg, tos, dlKind, ws.marshal[agg]); err != nil {
			return rep, err
		}
		for _, i := range tos {
			base := baseParams(models[i], alpha)
			installed := 0
			ws.decodeUsed = 0
			for _, msg := range net.Collect(i) {
				if msg.Kind != dlKind {
					continue
				}
				rep.BytesReceived += int64(len(msg.Payload))
				// wire.DecodeInto requires dst pre-shaped to the template
				// (the PFP1 decoder resizes in place; the codec does not).
				got := ensureParamsLike(ws.nextDecodeSet(len(base)), base)
				var err error
				if ws.Comms != nil {
					if err = ws.Comms.Validate(msg.From, dlKind, base, msg.Payload); err == nil {
						err = ws.Comms.DecodeInto(got, msg.From, dlKind, msg.Payload)
					}
				} else {
					err = UnmarshalParamsInto(got, base, msg.Payload)
				}
				if err != nil {
					// Download corrupted in transit: the member keeps its
					// local model until the next round.
					rep.reject(i, msg.From, msg.Kind, err.Error(), !errors.Is(err, wire.ErrDiverged))
					continue
				}
				nn.CopyParams(base, got)
				installed = effective[c]
			}
			rep.countSets(installed)
		}
	}
	return rep, nil
}

// foldRound averages one aggregation hop into dst: the optional own set
// (nil to skip, e.g. a starved participant) plus every inbox payload of
// the right kind that passes validation and the divergence filter, each
// weighted 1/total. Exclusions land in the report against the aggregating
// agent. It returns the number of sets folded (zero leaves dst untouched)
// and the senders whose payloads were accepted, in arrival order — the
// cluster round's participation accounting needs to know *whose* summary
// made it in, not just how many.
//
// Both planes apply the exact element order of nn.AverageParamSets — own
// set first, then payloads in arrival order — so the compressed lossless
// path stays bit-identical to dense.
func foldRound(rep *RoundReport, ws *RoundWorkspace, agent int, kind string, template []*tensor.Matrix, own []*tensor.Matrix, inbox []fednet.Message, dst []*tensor.Matrix) (int, []int) {
	x := ws.Comms
	if own != nil && !paramsClean(own) {
		rep.reject(agent, agent, kind, "NaN/Inf parameters", false)
		own = nil
	}
	var froms []int
	var sets [][]*tensor.Matrix // dense path only
	var accepted []fednet.Message
	// Adversary screening references the hop's template (the aggregating
	// agent's live base / cluster mean) — always present, unlike own.
	screen := ws.Adv != nil && ws.Adv.DefenseEnabled()
	if x == nil || screen {
		ws.decodeUsed = 0
	}
	if x == nil && own != nil {
		sets = append(sets, own)
	}
	for _, msg := range inbox {
		if msg.Kind != kind {
			continue
		}
		if x != nil {
			if err := x.Validate(msg.From, kind, template, msg.Payload); err != nil {
				rep.reject(agent, msg.From, msg.Kind, err.Error(), !errors.Is(err, wire.ErrDiverged))
				continue
			}
			if screen && msg.From != agent {
				got := ensureParamsLike(ws.nextDecodeSet(len(template)), template)
				if err := x.DecodeInto(got, msg.From, kind, msg.Payload); err != nil {
					rep.reject(agent, msg.From, msg.Kind, err.Error(), true)
					continue
				}
				if reason, bad := ws.Adv.Suspect(got, template); bad {
					rep.rejectByzantine(agent, msg.From, msg.Kind, reason)
					continue
				}
			}
			accepted = append(accepted, msg)
		} else {
			got := ws.nextDecodeSet(len(template))
			if err := UnmarshalParamsInto(got, template, msg.Payload); err != nil {
				rep.reject(agent, msg.From, msg.Kind, err.Error(), true)
				continue
			}
			if !paramsClean(got) {
				rep.reject(agent, msg.From, msg.Kind, "NaN/Inf parameters", false)
				continue
			}
			if ws.Adv != nil && msg.From != agent {
				if reason, bad := ws.Adv.Suspect(got, template); bad {
					rep.rejectByzantine(agent, msg.From, msg.Kind, reason)
					continue
				}
			}
			sets = append(sets, got)
		}
		froms = append(froms, msg.From)
	}
	if x == nil {
		return nn.AverageParamSets(dst, sets...), froms
	}
	total := len(accepted)
	if own != nil {
		total++
	}
	if total == 0 {
		return 0, nil
	}
	inv := 1.0 / float64(total)
	for _, m := range dst {
		m.Zero()
	}
	var comp [][]float64
	if x.Options().KahanFold {
		ws.comps[agent] = ensureComp(ws.comps[agent], template)
		comp = ws.comps[agent]
	}
	if own != nil {
		wire.FoldLocal(dst, comp, own, inv)
	}
	for _, msg := range accepted {
		if err := x.FoldInto(dst, comp, msg.From, kind, msg.Payload, inv); err != nil {
			// Validate guaranteed this fold would succeed; failing here is a
			// codec bug — surface it as a reject so the report says what
			// happened, and leave the remaining folds consistent.
			rep.reject(agent, msg.From, msg.Kind, err.Error(), true)
		}
	}
	return total, froms
}
