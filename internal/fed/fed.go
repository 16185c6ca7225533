// Package fed implements the federated-learning machinery of the paper:
//
//   - decentralized FedAvg rounds (Algorithm 1): every agent broadcasts its
//     model parameters to every peer over the simulated LAN and averages
//     what arrives with its own — no aggregation server exists;
//   - centralized (cloud) rounds for the Cloud/FL/FRL baselines: spokes
//     upload to a hub which averages and redistributes;
//   - the FedPer personalization split (Section 3.3.2, Eqs. 7–8): only the
//     first α trainable layers of a model (the "base layers") participate
//     in federation, the remaining layers stay local forever.
//
// All transports run through fednet so byte counts, message counts, and
// simulated time are accounted.
package fed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ErrRoundStarved marks a round (or an agent within one) left with no
// valid parameter sets to average — every input was lost, corrupt, or
// diverged. The aggregate state is left unchanged in that case, so callers
// preferring degradation over failure can errors.Is-match this and carry
// on to the next period.
var ErrRoundStarved = errors.New("no valid parameter sets to average")

// wireMagic opens every parameter blob; the 4 bytes after it hold a CRC32
// (IEEE) of the body. The checksum lets receivers reject payloads that
// were corrupted on the wire instead of averaging garbage — CRC32 catches
// every single-bit flip, the fault plan's corruption model.
const wireMagic = "PFP1"

// WireOverhead is the byte overhead MarshalParams adds on top of the raw
// matrix encoding (magic + checksum). Communication accounting that
// predicts payload sizes from nn.ParamsWireSize must add it.
const WireOverhead = len(wireMagic) + 4

// MarshalParams serializes a parameter set in wire format: a checksummed
// header followed by the matrices back to back.
func MarshalParams(ps []*tensor.Matrix) []byte {
	return MarshalParamsInto(nil, ps)
}

// MarshalParamsInto is MarshalParams appending into a reused buffer: dst is
// truncated and overwritten, growing only when its capacity is exceeded, and
// the (possibly re-backed) slice is returned. Callers own the reuse
// discipline — the buffer must stay untouched while any message carrying it
// is still in flight (fednet shares payloads, it does not copy them).
func MarshalParamsInto(dst []byte, ps []*tensor.Matrix) []byte {
	dst = append(dst[:0], wireMagic...)
	dst = append(dst, 0, 0, 0, 0) // checksum placeholder
	for _, p := range ps {
		dst = p.AppendWire(dst)
	}
	binary.LittleEndian.PutUint32(dst[len(wireMagic):WireOverhead], crc32.ChecksumIEEE(dst[WireOverhead:]))
	return dst
}

// UnmarshalParamsLike decodes a wire blob into fresh matrices shaped like
// the given template set. It errors on a missing header, checksum
// mismatch, or shape/length mismatch — the validation gate federation
// rounds use to quarantine corrupt payloads.
func UnmarshalParamsLike(template []*tensor.Matrix, data []byte) ([]*tensor.Matrix, error) {
	out := make([]*tensor.Matrix, len(template))
	for i := range out {
		out[i] = &tensor.Matrix{}
	}
	if err := UnmarshalParamsInto(out, template, data); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalParamsInto is UnmarshalParamsLike decoding into a caller-owned
// set (reusing each matrix's backing storage when capacity allows) instead
// of allocating fresh matrices. dst must have the template's length; on
// error the contents of dst are unspecified and the caller must discard the
// set.
func UnmarshalParamsInto(dst, template []*tensor.Matrix, data []byte) error {
	if len(dst) != len(template) {
		panic(fmt.Sprintf("fed: UnmarshalParamsInto dst length %d, want %d", len(dst), len(template)))
	}
	if len(data) < WireOverhead || string(data[:len(wireMagic)]) != wireMagic {
		return fmt.Errorf("fed: payload missing wire header")
	}
	want := binary.LittleEndian.Uint32(data[len(wireMagic):WireOverhead])
	if got := crc32.ChecksumIEEE(data[WireOverhead:]); got != want {
		return fmt.Errorf("fed: payload checksum mismatch (header %08x, body %08x)", want, got)
	}
	rest := data[WireOverhead:]
	for i, tpl := range template {
		n, err := dst[i].DecodeInto(rest)
		if err != nil {
			return fmt.Errorf("fed: decoding param %d: %w", i, err)
		}
		if dst[i].Rows != tpl.Rows || dst[i].Cols != tpl.Cols {
			return fmt.Errorf("fed: param %d is %dx%d, want %dx%d", i, dst[i].Rows, dst[i].Cols, tpl.Rows, tpl.Cols)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("fed: %d trailing bytes after params", len(rest))
	}
	return nil
}

// paramsClean reports whether a set is free of NaN/Inf — the divergence
// filter applied before any set joins an aggregate.
func paramsClean(set []*tensor.Matrix) bool {
	for _, m := range set {
		if m.HasNaN() {
			return false
		}
	}
	return true
}

// baseParams returns the federated slice of a model's parameters: those of
// the first alpha trainable layers. alpha < 0 or ≥ the trainable-layer
// count selects all parameters (plain FedAvg, no personalization).
func baseParams(m *nn.Sequential, alpha int) []*tensor.Matrix {
	n := m.NumTrainableLayers()
	if alpha < 0 || alpha > n {
		alpha = n
	}
	return m.ParamsOfTrainableRange(0, alpha)
}

// DecentralizedRound performs one synchronous DFL exchange (Algorithm 1
// lines "Broadcast / Receive / aggregate") for one model per agent:
//
//  1. agent i snapshots its base parameters (first alpha trainable layers;
//     alpha<0 = all) and broadcasts them to every peer;
//  2. agent i averages its own snapshot with every set it received, and
//     installs the mean into its base layers.
//
// Personalization layers (trainable layers ≥ alpha) are never transmitted
// or modified — they realize W(DRLP) of Eq. 8; the installed mean realizes
// W(DRLB) of Eq. 7 and the model's Forward then computes their combination.
//
// models[i] belongs to network agent i; all models must share one
// architecture. The round degrades gracefully under every fabric fault:
// drops and partitions shrink the aggregate to whatever arrived, payloads
// failing wire validation (checksum, framing, shape) are quarantined and
// counted instead of aborting the round, NaN/Inf sets are filtered, and
// agents inside a crash window sit the round out untouched. The returned
// RoundReport carries the participation stats; the error is reserved for
// structural misuse (model-count mismatch, topology violation).
//
// DecentralizedRound is the synchronous form of BeginDecentralizedRound: it
// starts the round and immediately joins it.
func DecentralizedRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int) (RoundReport, error) {
	return BeginDecentralizedRound(net, models, kind, alpha, nil).Join()
}

// collectFrom gathers one agent's aggregate inputs from a drained inbox:
// its own snapshot plus every received payload of the right kind, each
// gated through wire validation and the divergence filter. Exclusions land
// in the report.
func (rep *RoundReport) collectFrom(msgs []fednet.Message, agent int, template []*tensor.Matrix, kind string, own []*tensor.Matrix) [][]*tensor.Matrix {
	var sets [][]*tensor.Matrix
	if own != nil {
		if paramsClean(own) {
			sets = append(sets, own)
		} else {
			rep.reject(agent, agent, kind, "NaN/Inf parameters", false)
		}
	}
	for _, msg := range msgs {
		if msg.Kind != kind {
			continue
		}
		got, err := UnmarshalParamsLike(template, msg.Payload)
		if err != nil {
			rep.reject(agent, msg.From, msg.Kind, err.Error(), true)
			continue
		}
		if !paramsClean(got) {
			rep.reject(agent, msg.From, msg.Kind, "NaN/Inf parameters", false)
			continue
		}
		sets = append(sets, got)
	}
	return sets
}

// CentralizedRound performs one cloud-FL exchange over a Star network:
// every spoke uploads its base parameters to the hub (agent 0), the hub
// averages them together with its own and broadcasts the global model back,
// and every agent installs it. This is the Cloud/FL/FRL baseline transport.
//
// The hub is a real participant (agent 0 owns models[0]); with hubIsServer
// true the hub contributes no parameters of its own — it is a pure
// aggregation server, the paper's "malicious cloud" role.
//
// Like DecentralizedRound, the exchange degrades gracefully: corrupt or
// diverged uploads are quarantined and counted, crashed spokes sit the
// round out, and a spoke that never receives (or cannot validate) the
// global model simply keeps its current parameters. The one hard fault
// left is a server hub whose every upload was rejected — there is nothing
// to average, and the error says exactly what was lost and why.
func CentralizedRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int, hubIsServer bool) (rep RoundReport, err error) {
	if net.N() != len(models) {
		return rep, fmt.Errorf("fed: %d models for %d network agents", len(models), net.N())
	}
	if net.Config().Topology != fednet.Star {
		return rep, fmt.Errorf("fed: CentralizedRound requires a star network, have %v", net.Config().Topology)
	}
	n := len(models)
	if n == 1 {
		return RoundReport{Agents: 1, MinSets: 1, MaxSets: 1}, nil
	}
	if net.AgentDown(0) {
		// A crashed hub takes the whole round with it; every spoke keeps
		// its local model. Not an error: the fleet retries next period.
		rep.Crashed = 1
		return rep, nil
	}
	rep.Agents = 1
	// Byte accounting: fednet.Stats delta around the round's transport.
	// Centralized rounds always speak dense PFP1, so the dense baseline is
	// the bill itself (ratio 1).
	st0 := net.Stats()
	defer func() {
		st := net.Stats()
		rep.BytesSent = st.BytesSent - st0.BytesSent
		rep.Messages = st.MessagesSent - st0.MessagesSent
		rep.DenseBytes = rep.BytesSent
	}()
	// Upload.
	for i := 1; i < n; i++ {
		if net.AgentDown(i) {
			rep.Crashed++
			continue
		}
		rep.Agents++
		snap := nn.CloneParams(baseParams(models[i], alpha))
		if !paramsClean(snap) {
			rep.reject(0, i, kind, "NaN/Inf parameters (upload withheld)", false)
			continue
		}
		if err := net.Send(i, 0, kind, MarshalParams(snap)); err != nil {
			return rep, err
		}
	}
	// Hub aggregates.
	hubBase := baseParams(models[0], alpha)
	var own []*tensor.Matrix
	if !hubIsServer {
		own = nn.CloneParams(hubBase)
	}
	inbox := net.Collect(0)
	for _, msg := range inbox {
		if msg.Kind == kind {
			rep.BytesReceived += int64(len(msg.Payload))
		}
	}
	sets := rep.collectFrom(inbox, 0, hubBase, kind, own)
	rep.countSets(len(sets))
	if len(sets) == 0 {
		return rep, fmt.Errorf("fed: hub (kind %q, %d corrupt-rejected, %d NaN-rejected, %d spokes crashed — %s): %w",
			kind, rep.CorruptRejected, rep.NaNRejected, rep.Crashed, rep.rejectsFor(0), ErrRoundStarved)
	}
	global := nn.CloneParams(hubBase)
	nn.AverageParamSets(global, sets...)
	// Distribute and install.
	blob := MarshalParams(global)
	if err := net.Broadcast(0, kind, blob); err != nil {
		return rep, err
	}
	nn.CopyParams(hubBase, global)
	for i := 1; i < n; i++ {
		if net.AgentDown(i) {
			continue
		}
		base := baseParams(models[i], alpha)
		for _, msg := range net.Collect(i) {
			if msg.Kind != kind {
				continue
			}
			rep.BytesReceived += int64(len(msg.Payload))
			got, err := UnmarshalParamsLike(base, msg.Payload)
			if err != nil {
				// The download was corrupted in transit; the spoke keeps
				// its local model until the next round.
				rep.reject(i, msg.From, msg.Kind, err.Error(), true)
				continue
			}
			nn.CopyParams(base, got)
		}
	}
	return rep, nil
}

// Schedule decides when periodic broadcasts fire. The paper's β and γ are
// broadcast periods in hours; the simulation advances in minutes.
type Schedule struct {
	// PeriodHours is the broadcast period (β or γ). Non-positive disables.
	PeriodHours float64
}

// Due reports whether a broadcast fires at the given simulation minute.
// Minute 0 does not fire (there is nothing trained yet).
func (s Schedule) Due(minute int) bool {
	if s.PeriodHours <= 0 || minute == 0 {
		return false
	}
	period := int(s.PeriodHours * 60)
	if period < 1 {
		period = 1
	}
	return minute%period == 0
}

// RoundsPerDay returns how many broadcasts fire in a 24h day.
func (s Schedule) RoundsPerDay() int {
	if s.PeriodHours <= 0 {
		return 0
	}
	period := int(s.PeriodHours * 60)
	if period < 1 {
		period = 1
	}
	return (24 * 60) / period
}
