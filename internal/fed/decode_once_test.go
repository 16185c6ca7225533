package fed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// perReceiverAggregate is the reference compressed aggregation that the
// shared decode must reproduce: every receiver validates and folds each
// payload it holds on its own — Validate then FoldInto, or, with the
// adversary defense on, DecodeInto plus the Suspect gates and a dense
// average. Written against the public wire API only.
func perReceiverAggregate(p *PendingRound, msgs [][]fednet.Message, kind string, ws *RoundWorkspace) {
	x := ws.Comms
	screen := ws.Adv != nil && ws.Adv.DefenseEnabled()
	var comp [][]float64
	for idx, i := range p.agents {
		base, own := p.bases[idx], ws.snaps[i]
		ownClean := paramsClean(own)
		if !ownClean {
			p.rep.reject(i, i, kind, "NaN/Inf parameters", false)
		}
		var sets [][]*tensor.Matrix // screened path
		if ownClean {
			sets = append(sets, own)
		}
		var accepted []fednet.Message
		for _, msg := range msgs[i] {
			if msg.Kind != kind {
				continue
			}
			if err := x.Validate(msg.From, kind, base, msg.Payload); err != nil {
				p.rep.reject(i, msg.From, msg.Kind, err.Error(), !errors.Is(err, wire.ErrDiverged))
				continue
			}
			if screen {
				got := nn.CloneParams(base)
				if err := x.DecodeInto(got, msg.From, kind, msg.Payload); err != nil {
					p.rep.reject(i, msg.From, msg.Kind, err.Error(), true)
					continue
				}
				if reason, bad := ws.Adv.Suspect(got, own); bad {
					p.rep.rejectByzantine(i, msg.From, msg.Kind, reason)
					continue
				}
				sets = append(sets, got)
			}
			accepted = append(accepted, msg)
		}
		if screen {
			p.used[idx] = nn.AverageParamSets(p.staged[idx], sets...)
			continue
		}
		total := len(accepted)
		if ownClean {
			total++
		}
		p.used[idx] = total
		if total == 0 {
			continue
		}
		inv := 1.0 / float64(total)
		staged := p.staged[idx]
		for _, m := range staged {
			m.Zero()
		}
		if x.Options().KahanFold {
			comp = ensureComp(comp, base)
		}
		if ownClean {
			wire.FoldLocal(staged, comp, own, inv)
		}
		for _, msg := range accepted {
			if err := x.FoldInto(staged, comp, msg.From, kind, msg.Payload, inv); err != nil {
				p.err = fmt.Errorf("fed: folding payload from agent %d: %w", msg.From, err)
				return
			}
		}
	}
}

// refFleet builds n models from one shared initialization plus small
// per-agent drift (so honest payloads pass the defense gates), wide enough
// that the first weight matrix spans several delta-codec segments.
func refFleet(n int, seed int64) []*nn.Sequential {
	out := make([]*nn.Sequential, n)
	for i := range out {
		out[i] = nn.NewMLP(rand.New(rand.NewSource(seed)), 80, 96, 8, 3)
		drift := rand.New(rand.NewSource(seed + 100 + int64(i)))
		for _, p := range out[i].Params() {
			for k := range p.Data {
				p.Data[k] *= 1 + 0.02*drift.NormFloat64()
			}
		}
	}
	return out
}

// TestDecodeOnceMatchesPerReceiver runs twin fleets — one on the
// decode-once aggregation, one on perReceiverAggregate — through every
// fault the compressed plane handles and demands identical reports (reject
// order and reason strings included) and bit-identical parameters, while
// the decode-once twin performs no more validations than the reference.
func TestDecodeOnceMatchesPerReceiver(t *testing.T) {
	delta := wire.Options{Level: wire.Delta}
	for _, tc := range []struct {
		name string
		cfg  fednet.Config
		opts wire.Options
		plan *AdversaryPlan
		nan  bool // poison agent 2 before the final round
	}{
		{name: "clean", opts: delta},
		{name: "drops", cfg: fednet.Config{DropProb: 0.3, Seed: 5}, opts: delta},
		{name: "corrupt-0.4", cfg: fednet.Config{Seed: 6, Faults: fednet.FaultPlan{CorruptProb: 0.4}}, opts: delta},
		{name: "corrupt-1.0", cfg: fednet.Config{Seed: 6, Faults: fednet.FaultPlan{CorruptProb: 1}}, opts: delta},
		{name: "partition", cfg: fednet.Config{Faults: fednet.FaultPlan{Partitions: []fednet.Partition{{A: 0, B: 2, EndMin: 9999}}}}, opts: delta},
		{name: "crash", cfg: fednet.Config{Faults: fednet.FaultPlan{Crashes: []fednet.CrashWindow{{Agent: 1, EndMin: 9999}}}}, opts: delta},
		{name: "nan-sender", opts: delta, nan: true},
		{name: "byzantine-sign-flip", opts: delta, plan: &AdversaryPlan{
			Seed:      3,
			Attackers: []Attacker{{Agent: 1, Attack: AttackSignFlip}},
			Defense:   Defense{CosineGate: true},
		}},
		{name: "kahan", opts: wire.Options{Level: wire.Delta, KahanFold: true}},
		{name: "sampled-k3", cfg: fednet.Config{Topology: fednet.Sampled, SampleK: 3, Seed: 4}, opts: delta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, rounds = 6, 3
			once, ref := refFleet(n, 40), refFleet(n, 40)
			onceNet, refNet := fednet.New(n, tc.cfg), fednet.New(n, tc.cfg)
			onceWS := &RoundWorkspace{Comms: wire.NewExchange(tc.opts)}
			refWS := &RoundWorkspace{Comms: wire.NewExchange(tc.opts), aggregator: perReceiverAggregate}
			if tc.plan != nil {
				onceWS.Adv, refWS.Adv = NewAdversary(*tc.plan), NewAdversary(*tc.plan)
			}
			run := func(net *fednet.Network, models []*nn.Sequential, ws *RoundWorkspace) RoundReport {
				t.Helper()
				var p *PendingRound
				if tc.cfg.Topology == fednet.Sampled {
					p = BeginSampledGossipRound(net, models, "m", -1, ws)
				} else {
					p = BeginDecentralizedRound(net, models, "m", -1, ws)
				}
				rep, err := p.Join()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			rng := rand.New(rand.NewSource(99))
			degraded := false
			for r := 0; r < rounds; r++ {
				if tc.nan && r == rounds-1 {
					once[2].Params()[0].Data[0] = math.NaN()
					ref[2].Params()[0].Data[0] = math.NaN()
				}
				decoded0 := onceWS.Comms.Stats().PayloadsDecoded
				wantRep, gotRep := run(refNet, ref, refWS), run(onceNet, once, onceWS)
				if !reflect.DeepEqual(wantRep, gotRep) {
					t.Fatalf("round %d report mismatch:\nper-receiver %+v\ndecode-once  %+v", r, wantRep, gotRep)
				}
				requireBitEqual(t, ref, once, fmt.Sprintf("%s round %d", tc.name, r))
				degraded = degraded || gotRep.Degraded()
				if decoded := onceWS.Comms.Stats().PayloadsDecoded - decoded0; tc.name == "clean" && decoded != n {
					t.Fatalf("round %d: clean round validated %d payloads, want one per sender (%d)", r, decoded, n)
				}
				driftFleets(rng, ref, once)
			}
			if faulty := tc.cfg.DropProb > 0 || !tc.cfg.Faults.Empty() || tc.plan != nil || tc.nan; faulty != degraded {
				t.Fatalf("fault case %v but rounds degraded %v", faulty, degraded)
			}
			if got, want := onceWS.Comms.Stats().PayloadsDecoded, refWS.Comms.Stats().PayloadsDecoded; got > want {
				t.Fatalf("decode-once validated %d payloads, per-receiver %d", got, want)
			}
		})
	}
}

// TestCompressedRoundAllocsLinear gates the aggregation's allocation
// growth: with each broadcast decoded once and folded without per-call
// closures, a warmed delta round allocates O(N), not O(N²) — quadrupling
// the fleet may at most about quadruple the allocations.
func TestCompressedRoundAllocsLinear(t *testing.T) {
	allocs := func(n int) float64 {
		models := make([]*nn.Sequential, n)
		for i := range models {
			models[i] = nn.NewMLP(rand.New(rand.NewSource(int64(i))), 24, 64, 64, 3)
		}
		net := fednet.New(n, fednet.Config{})
		ws := &RoundWorkspace{Comms: wire.NewExchange(wire.Options{Level: wire.Delta})}
		round := func() {
			if _, err := BeginDecentralizedRound(net, models, "m", -1, ws).Join(); err != nil {
				t.Fatal(err)
			}
		}
		round() // keyframes
		round() // first deltas: every pool is warm from here on
		return testing.AllocsPerRun(5, round)
	}
	a8, a32 := allocs(8), allocs(32)
	t.Logf("allocs per round: %.0f at 8 agents, %.0f at 32", a8, a32)
	if ratio := a32 / a8; ratio > 4.5 {
		t.Fatalf("allocs per round: %.0f at 8 agents, %.0f at 32 (ratio %.2f, want ≤ 4.5)", a8, a32, ratio)
	}
}
