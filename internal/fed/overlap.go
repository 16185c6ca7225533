package fed

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// This file implements overlapped federation rounds: the transport half of a
// decentralized round (snapshot, marshal, broadcast, inbox drain) runs
// synchronously on the caller — every fednet interaction stays on the
// simulation's deterministic clock and RNG — while the aggregation half
// (unmarshal, validation, averaging) runs in a background goroutine that
// writes into staged double buffers. Join blocks until aggregation finishes
// and installs the staged means into the live base layers in agent order.
//
// Because the aggregate is computed from immutable snapshots and drained
// messages, the round's result is bit-identical to the synchronous
// DecentralizedRound no matter what compute the caller overlaps with it.
// The one semantic shift is *when* the mean lands in the live model: at
// Join instead of inside the round call. Callers therefore only overlap a
// round with work that does not read or train the very models in the round
// (e.g. forecaster rounds over EMS compute), joining before the next use.

// RoundWorkspace holds the buffers a repeated federation round reuses:
// per-agent marshal buffers, parameter snapshots, staged aggregation
// targets, and a pool of decode sets for received payloads. A workspace
// serves one round at a time — BeginDecentralizedRound panics if the
// previous round it carries has not been joined, because in-flight message
// payloads alias the marshal buffers.
type RoundWorkspace struct {
	// Comms, when non-nil, switches the workspace's rounds onto the
	// compressed wire plane: snapshots encode through the Exchange
	// (delta/top-k coding against each sender's last broadcast) instead
	// of the dense PFP1 marshal. All rounds sharing one Exchange must
	// share one workspace (or otherwise serialize), because the
	// Exchange's reference store advances with every encode. Nil keeps
	// the dense PFP1 plane. On either plane, aggregation validates and
	// decodes each distinct received payload once per round into a
	// pooled set shared by every receiver — O(N·P) decoded sets per
	// workspace plus each agent's O(P) staged sum.
	Comms *wire.Exchange

	// Tel, when non-nil, reports every round this workspace carries —
	// duration, fold time, join wait, and the report counters — to its
	// telemetry sink. Nil is free.
	Tel *RoundTelemetry

	// Adv, when non-nil, drives the scenario adversary: attackers listed
	// in its plan broadcast deterministically poisoned payloads, and when
	// its defense is enabled every aggregating agent screens received
	// payloads (norm-ratio / cosine gates) before they join the mean,
	// rejected ones landing in RoundReport.ByzantineRejected. Nil — the
	// only state for every pre-scenario config — leaves both the
	// transport and aggregation halves byte-identical to before.
	Adv *Adversary

	marshal [][]byte
	snaps   [][]*tensor.Matrix
	staged  [][]*tensor.Matrix

	decode     [][]*tensor.Matrix
	decodeUsed int

	// shared caches, per sender, the round's verdict on that sender's
	// broadcast bytes (ws.marshal[sender]); folds lists, per agent, the
	// sets its mean folds; comps is each agent's Kahan scratch.
	shared []sharedDecode
	folds  [][][]*tensor.Matrix
	comps  [][][]float64

	// aggregator, when non-nil, replaces PendingRound.aggregate — a seam
	// for the equivalence suite's reference aggregator.
	aggregator func(p *PendingRound, msgs [][]fednet.Message, kind string, ws *RoundWorkspace)

	inFlight bool
}

// sharedDecode is one sender's broadcast as validated against tpl's shapes
// (tpl nil: not yet seen this round): the decoded set, or the error.
type sharedDecode struct {
	tpl []*tensor.Matrix
	set []*tensor.Matrix
	err error
}

// ensureAgents sizes the per-agent buffer tables for n agents.
func (ws *RoundWorkspace) ensureAgents(n int) {
	if len(ws.marshal) < n {
		ws.marshal = append(ws.marshal, make([][]byte, n-len(ws.marshal))...)
		ws.snaps = append(ws.snaps, make([][]*tensor.Matrix, n-len(ws.snaps))...)
		ws.staged = append(ws.staged, make([][]*tensor.Matrix, n-len(ws.staged))...)
		ws.shared = append(ws.shared, make([]sharedDecode, n-len(ws.shared))...)
		ws.folds = append(ws.folds, make([][][]*tensor.Matrix, n-len(ws.folds))...)
		ws.comps = append(ws.comps, make([][][]float64, n-len(ws.comps))...)
	}
}

// nextDecodeSet hands out the next pooled decode set, shaped by the decoder
// itself (DecodeInto resizes in place). The pool is positional: reset
// decodeUsed to recycle every set once its consumers are done.
func (ws *RoundWorkspace) nextDecodeSet(n int) []*tensor.Matrix {
	if ws.decodeUsed == len(ws.decode) {
		ws.decode = append(ws.decode, nil)
	}
	set := ws.decode[ws.decodeUsed]
	for len(set) < n {
		set = append(set, &tensor.Matrix{})
	}
	set = set[:n]
	ws.decode[ws.decodeUsed] = set
	ws.decodeUsed++
	return set
}

// ensureComp shapes a Kahan compensation buffer like the given set, reusing
// buf's capacity, and zeroes it for a fresh aggregation.
func ensureComp(buf [][]float64, like []*tensor.Matrix) [][]float64 {
	if cap(buf) < len(like) {
		buf = make([][]float64, len(like))
	}
	buf = buf[:len(like)]
	for i, m := range like {
		if cap(buf[i]) < m.Size() {
			buf[i] = make([]float64, m.Size())
		}
		buf[i] = buf[i][:m.Size()]
		clear(buf[i])
	}
	return buf
}

// sameShapes reports whether two parameter sets have identical shapes.
func sameShapes(a, b []*tensor.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rows != b[i].Rows || a[i].Cols != b[i].Cols {
			return false
		}
	}
	return true
}

// ensureParamsLike shapes dst as a reusable deep buffer matching the shapes
// of like, reusing backing storage whenever capacity allows.
func ensureParamsLike(dst, like []*tensor.Matrix) []*tensor.Matrix {
	if cap(dst) < len(like) {
		dst = make([]*tensor.Matrix, len(like))
	} else {
		dst = dst[:len(like)]
	}
	for i, p := range like {
		dst[i] = tensor.EnsureShape(dst[i], p.Rows, p.Cols)
	}
	return dst
}

// PendingRound is a decentralized round whose transport half has completed
// and whose aggregation half may still be running. Join must be called
// exactly once per round before the workspace (or the round's models) are
// used again; it is cheap when aggregation already finished.
type PendingRound struct {
	rep  RoundReport
	err  error
	done chan struct{}
	ws   *RoundWorkspace

	agents []int              // live agent indices, ascending
	bases  [][]*tensor.Matrix // live base-layer params, parallel to agents
	staged [][]*tensor.Matrix // staged aggregates, parallel to agents
	used   []int              // sets averaged per agent, parallel to agents
	joined bool

	tel   *RoundTelemetry
	begin time.Time
}

// BeginDecentralizedRound starts one DFL exchange (see DecentralizedRound
// for the protocol and degradation semantics) and returns without waiting
// for aggregation. All network traffic — snapshot broadcast and inbox
// drain — happens before it returns, so fednet's byte/time accounting and
// fault RNG advance exactly as in the synchronous round. Averaging then
// proceeds in the background against staged buffers; the caller may overlap
// any compute that does not touch the round's models, and must call Join on
// the result before reading or training them again.
//
// ws may be nil for a one-shot round (fresh buffers); passing a workspace
// across rounds removes the per-round marshal and snapshot allocations.
func BeginDecentralizedRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int, ws *RoundWorkspace) *PendingRound {
	p := &PendingRound{done: make(chan struct{})}
	if ws != nil && ws.Tel != nil {
		p.tel = ws.Tel
		p.begin = time.Now()
	}
	if net.N() != len(models) {
		p.err = fmt.Errorf("fed: %d models for %d network agents", len(models), net.N())
		close(p.done)
		return p
	}
	n := len(models)
	if n == 1 {
		p.rep = RoundReport{Agents: 1, MinSets: 1, MaxSets: 1}
		close(p.done)
		return p
	}
	if ws == nil {
		ws = &RoundWorkspace{}
	} else if ws.inFlight {
		panic("fed: BeginDecentralizedRound: workspace round still pending (Join it first)")
	}
	ws.ensureAgents(n)
	advRound := -1
	if ws.Adv != nil {
		advRound = ws.Adv.BeginRound(kind)
	}
	topo := net.Config().Topology
	p.rep.PartialExchange = topo == fednet.Ring || topo == fednet.Sampled
	live := make([]bool, n)
	for i := range models {
		if net.AgentDown(i) {
			p.rep.Crashed++
			continue
		}
		live[i] = true
		p.rep.Agents++
	}
	// Snapshot & broadcast. Snapshots isolate in-flight payloads from any
	// continued local mutation; they live in the workspace so steady-state
	// rounds allocate nothing here. The fednet.Stats delta around this
	// transport phase is the round's byte bill.
	st0 := net.Stats()
	for i, m := range models {
		if !live[i] {
			continue
		}
		base := baseParams(m, alpha)
		ws.snaps[i] = ensureParamsLike(ws.snaps[i], base)
		nn.CopyParams(ws.snaps[i], base)
		// A Byzantine agent broadcasts a poisoned set while ws.snaps[i]
		// stays true — its own aggregation folds honest parameters. The
		// adversary buffer is marshaled before the next PayloadFor call,
		// so one shared buffer serves the whole loop.
		payload := ws.snaps[i]
		if ws.Adv != nil {
			payload = ws.Adv.PayloadFor(i, kind, advRound, ws.snaps[i])
		}
		if ws.Comms != nil {
			var err error
			ws.marshal[i], err = ws.Comms.EncodeInto(ws.marshal[i][:0], i, kind, payload)
			if err != nil {
				p.err = fmt.Errorf("fed: encoding agent %d params: %w", i, err)
				close(p.done)
				return p
			}
		} else {
			ws.marshal[i] = MarshalParamsInto(ws.marshal[i], payload)
		}
		if err := net.Broadcast(i, kind, ws.marshal[i]); err != nil {
			p.err = err
			close(p.done)
			return p
		}
	}
	// Drain every inbox now: Collect is the last fednet interaction, so the
	// network is back to a quiescent state when Begin returns.
	msgs := make([][]fednet.Message, n)
	for i := range models {
		if !live[i] {
			continue
		}
		msgs[i] = net.Collect(i)
		for _, msg := range msgs[i] {
			if msg.Kind == kind {
				p.rep.BytesReceived += int64(len(msg.Payload))
			}
		}
		base := baseParams(models[i], alpha)
		p.agents = append(p.agents, i)
		p.bases = append(p.bases, base)
		ws.staged[i] = ensureParamsLike(ws.staged[i], base)
		p.staged = append(p.staged, ws.staged[i])
	}
	st := net.Stats()
	p.rep.BytesSent = st.BytesSent - st0.BytesSent
	p.rep.Messages = st.MessagesSent - st0.MessagesSent
	if ws.Comms != nil && len(p.bases) > 0 {
		// Dense baseline: the same attempts carrying PFP1 payloads. The
		// attempt count is unchanged by payload size (drop/corruption RNG
		// draws are per attempt), so this is exact, not an estimate.
		p.rep.DenseBytes = int64(st.MessagesSent-st0.MessagesSent) * int64(wire.DenseSize(p.bases[0]))
	} else {
		p.rep.DenseBytes = p.rep.BytesSent
	}
	p.used = make([]int, len(p.agents))
	p.ws = ws
	ws.inFlight = true
	// Aggregate in the background. Rejects and set counts are recorded
	// agent by agent in ascending order, so they land in the report in the
	// same order the synchronous round produces.
	go func() {
		var foldStart time.Time
		if p.tel != nil {
			foldStart = time.Now()
		}
		if ws.aggregator != nil {
			ws.aggregator(p, msgs, kind, ws)
		} else {
			p.aggregate(msgs, kind, ws)
		}
		if p.tel != nil {
			p.tel.observeFold(time.Since(foldStart))
		}
		close(p.done)
	}()
	return p
}

// aggregate is the round's aggregation half, on either plane. Every
// receiver of a broadcast holds the very same []byte, so each distinct
// payload is validated and decoded once per round (decodeOnce) and the
// decoded set is shared. Pass 1 walks agents in ascending order —
// own-snapshot divergence check, then each message's shared verdict and,
// with the defense on, the Suspect gates against the agent's own snapshot
// — recording rejects exactly where a per-receiver decode would. Pass 2
// folds, agents in parallel: own snapshot first, then accepted sets in
// arrival order, staged += v·inv — the element order and arithmetic of
// nn.AverageParamSets and Exchange.FoldInto, so lossless compressed
// rounds stay bit-identical to dense ones. The opt-in Kahan fold trades
// that equality for compensated summation. A top-k payload folds its
// reconstructed value (reference + correction) in one step.
func (p *PendingRound) aggregate(msgs [][]fednet.Message, kind string, ws *RoundWorkspace) {
	ws.decodeUsed = 0
	clear(ws.shared)
	screen := ws.Adv != nil && ws.Adv.DefenseEnabled()
	for idx, i := range p.agents {
		sets := ws.folds[idx][:0]
		if paramsClean(ws.snaps[i]) {
			sets = append(sets, ws.snaps[i])
		} else {
			p.rep.reject(i, i, kind, "NaN/Inf parameters", false)
		}
		for _, msg := range msgs[i] {
			if msg.Kind != kind {
				continue
			}
			got, err := ws.decodeOnce(msg, p.bases[idx])
			if err != nil {
				p.rep.reject(i, msg.From, msg.Kind, err.Error(), !errors.Is(err, wire.ErrDiverged))
				continue
			}
			if screen {
				if reason, bad := ws.Adv.Suspect(got, ws.snaps[i]); bad {
					p.rep.rejectByzantine(i, msg.From, msg.Kind, reason)
					continue
				}
			}
			sets = append(sets, got)
		}
		ws.folds[idx] = sets
		p.used[idx] = len(sets)
	}
	kahan := ws.Comms != nil && ws.Comms.Options().KahanFold
	sched.Default().ParallelFor(len(p.agents), 1, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			sets := ws.folds[idx]
			if len(sets) == 0 {
				continue
			}
			staged := p.staged[idx]
			for _, m := range staged {
				m.Zero()
			}
			var comp [][]float64
			if kahan {
				ws.comps[idx] = ensureComp(ws.comps[idx], staged)
				comp = ws.comps[idx]
			}
			inv := 1.0 / float64(len(sets))
			for _, set := range sets {
				wire.FoldLocal(staged, comp, set, inv)
			}
		}
	})
}

// decodeOnce validates and decodes one received payload for an agent whose
// base layers are shaped like template: PFW2 through the Exchange, or
// dense PFP1 plus the divergence filter (a NaN/Inf set is
// wire.ErrDiverged). A payload that is its sender's broadcast buffer (same
// backing array and length) is decoded once per round and the verdict is
// shared by every receiver; any other byte string — a copy corrupted in
// transit — is validated on its own. Only accepted payloads keep a pooled
// set.
func (ws *RoundWorkspace) decodeOnce(msg fednet.Message, template []*tensor.Matrix) ([]*tensor.Matrix, error) {
	var entry *sharedDecode
	if b := ws.marshal[msg.From]; len(b) > 0 && len(b) == len(msg.Payload) && &b[0] == &msg.Payload[0] {
		entry = &ws.shared[msg.From]
		if entry.tpl != nil && sameShapes(entry.tpl, template) {
			return entry.set, entry.err
		}
	}
	set := ws.nextDecodeSet(len(template))
	var err error
	if ws.Comms == nil {
		if err = UnmarshalParamsInto(set, template, msg.Payload); err == nil && !paramsClean(set) {
			err = wire.ErrDiverged
		}
	} else if err = ws.Comms.Validate(msg.From, msg.Kind, template, msg.Payload); err == nil {
		err = ws.Comms.DecodeInto(ensureParamsLike(set, template), msg.From, msg.Kind, msg.Payload)
	}
	if err != nil {
		ws.decodeUsed-- // hand the set back
		set = nil
	}
	if entry != nil {
		*entry = sharedDecode{tpl: template, set: set, err: err}
	}
	return set, err
}

// Join waits for the round's aggregation to finish, installs each staged
// mean into its agent's live base layers (agents whose aggregate ended up
// empty keep their parameters, mirroring the synchronous round), and
// returns the completed report. Calling Join again returns the same result
// without reinstalling.
func (p *PendingRound) Join() (RoundReport, error) {
	var waitStart time.Time
	if p.tel != nil {
		waitStart = time.Now()
	}
	<-p.done
	if p.joined {
		return p.rep, p.err
	}
	p.joined = true
	if p.tel != nil {
		p.tel.observeJoin(p.begin, time.Since(waitStart), p.rep)
	}
	if p.err == nil {
		for idx, base := range p.bases {
			if p.used[idx] > 0 {
				nn.CopyParams(base, p.staged[idx])
			}
			p.rep.countSets(p.used[idx])
		}
	}
	if p.ws != nil {
		p.ws.inFlight = false
	}
	return p.rep, p.err
}
