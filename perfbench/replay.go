package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dqn"
	"repro/internal/energy"
	"repro/internal/fed"
	"repro/internal/fednet"
	"repro/internal/forecast"
	"repro/internal/nn"
	"repro/internal/pecan"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Layer replays time one layer's public functions with the workload's
// shapes: its config, its corpus and, for the serve calls, its engine.
// Nothing inside the program is instrumented.

// repeat calls fn until it has run at least minReps times and for at
// least minDur, and returns each call's duration.
func repeat(minReps int, minDur time.Duration, fn func() error) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < minDur {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
		if len(ds) >= 100000 {
			break
		}
	}
	return ds, nil
}

func medianOf(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// replayLayers runs every layer replay for cfg. eng must be paused: no
// other goroutine may step it while the serve calls run.
func replayLayers(cfg core.Config, eng *core.Engine) ([]metric, error) {
	var out []metric
	for _, f := range []func(core.Config, *core.Engine) ([]metric, error){
		storeLayer, forecastLayer, dqnLayer, fedLayer, serviceLayer,
	} {
		ms, err := f(cfg, eng)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// storeLayer decodes every (trace, day) block of a freshly generated copy
// of the corpus, whose day caches are still empty, so every call decodes.
func storeLayer(cfg core.Config, _ *core.Engine) ([]metric, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	ds := sys.Dataset()
	var buf []float64
	points, blocks := 0, 0
	t0 := time.Now()
	for _, h := range ds.Homes {
		for _, tr := range h.Traces {
			for d := 0; d < tr.Days(); d++ {
				buf = tr.DayInto(d, buf)
				if len(buf) != pecan.MinutesPerDay {
					return nil, fmt.Errorf("store replay: day %d decoded %d samples", d, len(buf))
				}
				blocks++
			}
			points += tr.Len()
		}
	}
	el := time.Since(t0)
	decodedMB := float64(blocks*pecan.MinutesPerDay*8) / 1e6
	return []metric{
		{"store.decode_mb_per_s", "MB/s", decodedMB / el.Seconds(), fmt.Sprintf("%d (trace, day) blocks, %.3g MB of float64 decoded", blocks, decodedMB)},
		{"store.bytes_per_point", "bytes", float64(ds.StorageBytes()) / float64(points), fmt.Sprintf("Dataset.StorageBytes ÷ %d samples", points)},
	}, nil
}

// forecastLayer trains and queries one device type's fleet of
// forecasters through forecast.HomeBatch, built the way core builds them.
func forecastLayer(cfg core.Config, eng *core.Engine) ([]metric, error) {
	ds := eng.System().Dataset()
	dt := ds.DeviceTypes()[0]
	var fcs []forecast.Forecaster
	var traces []*pecan.Trace
	kind := cfg.ForecastKind
	if kind == "" {
		kind = forecast.KindLSTM
	}
	for _, h := range ds.Homes {
		tr := h.TraceByType(dt)
		if tr == nil {
			continue
		}
		fc := forecast.DefaultConfig(tr.Device.OnKW)
		fc.Window, fc.Hidden, fc.Horizon, fc.Seed = cfg.ForecastWindow, cfg.ForecastHidden, 60, cfg.Seed+7
		f, err := forecast.New(kind, fc)
		if err != nil {
			return nil, fmt.Errorf("forecast replay: %w", err)
		}
		fcs = append(fcs, f)
		traces = append(traces, tr)
	}
	hb, err := forecast.NewHomeBatch(fcs)
	if err != nil {
		return nil, fmt.Errorf("forecast replay: %w", err)
	}
	// The bout trains on the lookback window ending at the last whole
	// day the replay uses; each trace owns its window scratch.
	day := min(cfg.Days, 3) - 1
	end := (day + 1) * pecan.MinutesPerDay
	series := make([][]float64, len(traces))
	for i, tr := range traces {
		series[i] = tr.Window(max(0, end-cfg.TrainLookbackHours*60), end)
	}
	epochs := max(cfg.TrainBoutEpochs, 1)
	train, err := repeat(3, 300*time.Millisecond, func() error {
		losses, ok := hb.TrainEpochs(series, epochs)
		if !ok {
			return errors.New("forecast replay: members' windows diverge")
		}
		for _, l := range losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("forecast replay: training loss %v", l)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One day of predictions: every hour whose history covers the window.
	var ts []int
	for h := 0; h < 24; h++ {
		if t := day*pecan.MinutesPerDay + h*60; t >= cfg.ForecastWindow {
			ts = append(ts, t)
		}
	}
	off := 0
	for i, tr := range traces {
		series[i], off = tr.DayWithHistory(day, cfg.ForecastWindow)
	}
	for i := range ts {
		ts[i] -= off
	}
	predict, err := repeat(5, 200*time.Millisecond, func() error {
		out := hb.PredictBatch(series, ts)
		if out.N != len(traces) || out.Rows != len(ts) || out.Cols != 60 {
			return fmt.Errorf("forecast replay: prediction shape %d×%d×%d", out.N, out.Rows, out.Cols)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	what := fmt.Sprintf("%s × %d homes", dt, len(traces))
	return []metric{
		{"forecast.train_bout_ms", "ms", medianOf(train, time.Millisecond),
			fmt.Sprintf("HomeBatch.TrainEpochs, %s, %d h lookback; n=%d", what, cfg.TrainLookbackHours, len(train))},
		{"forecast.predict_day_ms", "ms", medianOf(predict, time.Millisecond),
			fmt.Sprintf("HomeBatch.PredictBatch, %s, %d hours; n=%d", what, len(ts), len(predict))},
	}, nil
}

// stateDim is the EMS observation width core builds for cfg.
func stateDim(cfg core.Config) int {
	d := cfg.LookAhead + cfg.LookBack
	if cfg.TimeFeatures {
		d += 2
	}
	return d
}

// newAgent builds home i's DQN agent the way core does, with exploration
// already annealed (the steady state of a run) and its replay buffer
// filled with seeded random transitions.
func newAgent(cfg core.Config, i int, rng *rand.Rand) *dqn.Agent {
	sd := stateDim(cfg)
	a := dqn.New(dqn.Config{
		StateDim:  sd,
		Actions:   energy.NumModes,
		Hidden:    cfg.DQNHidden,
		BatchSize: cfg.DQNBatch,
		LearnRate: cfg.DQNLearnRate,
		Epsilon:   dqn.EpsilonSchedule{Start: 0.02, End: 0.02, DecaySteps: 1},
		Seed:      cfg.Seed + int64(1000+i),
		InitSeed:  cfg.Seed + 500,
	})
	for k := 0; k < 4*cfg.DQNBatch; k++ {
		s, n := make([]float64, sd), make([]float64, sd)
		for j := range s {
			s[j], n[j] = rng.Float64(), rng.Float64()
		}
		a.Observe(dqn.Transition{State: s, Action: rng.Intn(energy.NumModes), Reward: rng.NormFloat64(), Next: n})
	}
	return a
}

// dqnLayer times one agent's minibatch update and its per-minute batched
// action selection over one home's devices.
func dqnLayer(cfg core.Config, _ *core.Engine) ([]metric, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := newAgent(cfg, 0, rng)
	learn, err := repeat(200, 200*time.Millisecond, func() error {
		if l := a.Learn(); math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("dqn replay: loss %v", l)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	states := tensor.New(cfg.DevicesPerHome, stateDim(cfg))
	for i := range states.Data {
		states.Data[i] = rng.Float64()
	}
	out := make([]int, cfg.DevicesPerHome)
	sel, err := repeat(1000, 100*time.Millisecond, func() error {
		for _, act := range a.SelectActions(states, out) {
			if act < 0 || act >= energy.NumModes {
				return fmt.Errorf("dqn replay: action %d", act)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		{"dqn.learn_us", "us", medianOf(learn, time.Microsecond), fmt.Sprintf("Agent.Learn, batch %d, hidden %v; n=%d", cfg.DQNBatch, cfg.DQNHidden, len(learn))},
		{"dqn.select_us", "us", medianOf(sel, time.Microsecond), fmt.Sprintf("Agent.SelectActions over %d devices; n=%d", cfg.DevicesPerHome, len(sel))},
	}, nil
}

// sharedLayers maps the paper's α onto the trainable layers a round
// shares (α covering every hidden layer shares the whole network: -1).
func sharedLayers(cfg core.Config) int {
	if cfg.Alpha >= len(cfg.DQNHidden) {
		return -1
	}
	return cfg.Alpha
}

// fedRounds is how many EMS-plane rounds the federation replay runs; the
// first carries dense keyframes under the delta codec and is not timed.
const fedRounds = 6

// fedLayer runs N fednet agents' DQN base-layer rounds under the
// workload's codec, and separately times the codec's encode and
// validate+fold per payload. Agents learn a few minibatches between
// rounds, so delta payloads code real updates.
func fedLayer(cfg core.Config, _ *core.Engine) ([]metric, error) {
	n := cfg.Homes
	rng := rand.New(rand.NewSource(cfg.Seed))
	agents := make([]*dqn.Agent, n)
	models := make([]*nn.Sequential, n)
	for i := range agents {
		agents[i] = newAgent(cfg, i, rng)
		models[i] = agents[i].Online
	}
	alpha := sharedLayers(cfg)
	shared := func(m *nn.Sequential) []*tensor.Matrix {
		if alpha < 0 {
			return m.Params()
		}
		return m.ParamsOfTrainableRange(0, alpha)
	}
	learn := func() {
		for _, a := range agents {
			for k := 0; k < 60/cfg.LearnEveryMinutes; k++ {
				a.Learn()
			}
		}
	}

	net := fednet.New(n, fednet.Config{Topology: fednet.AllToAll, Seed: cfg.Seed + 3})
	ws := &fed.RoundWorkspace{Comms: wire.NewExchange(cfg.Comms)}
	var rounds []time.Duration
	var last fed.RoundReport
	for r := 0; r < fedRounds; r++ {
		learn()
		t0 := time.Now()
		rep, err := fed.BeginDecentralizedRound(net, models, "drl", alpha, ws).Join()
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("federation replay: %w", err)
		}
		if rep.Messages != n*(n-1) {
			return nil, fmt.Errorf("federation replay: round sent %d messages, all-to-all over %d agents sends %d", rep.Messages, n, n*(n-1))
		}
		if r > 0 {
			rounds = append(rounds, d)
		}
		last = rep
	}

	x := wire.NewExchange(cfg.Comms)
	template := shared(models[0])
	staged := make([]*tensor.Matrix, len(template))
	for i, p := range template {
		staged[i] = tensor.New(p.Rows, p.Cols)
	}
	payloads := make([][]byte, n)
	var enc, fold []time.Duration
	for r := 0; r < fedRounds; r++ {
		learn()
		for i, m := range models {
			t0 := time.Now()
			p, err := x.EncodeInto(payloads[i][:0], i, "drl", shared(m))
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("wire replay: encode: %w", err)
			}
			payloads[i] = p
			if r > 0 {
				enc = append(enc, d)
			}
		}
		for _, s := range staged {
			s.Zero()
		}
		for i, p := range payloads {
			t0 := time.Now()
			err := x.Validate(i, "drl", template, p)
			if err == nil {
				err = x.FoldInto(staged, nil, i, "drl", p, 1/float64(n))
			}
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("wire replay: validate/fold: %w", err)
			}
			if r > 0 {
				fold = append(fold, d)
			}
		}
	}
	// The fold of every agent's payload is the fleet mean.
	want := 0.0
	for _, m := range models {
		want += shared(m)[0].Data[0] / float64(n)
	}
	if got := staged[0].Data[0]; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return nil, fmt.Errorf("wire replay: folded mean %v, want %v", got, want)
	}

	codec := cfg.Comms.Level.String()
	return []metric{
		{"fed.round_ms", "ms", medianOf(rounds, time.Millisecond), fmt.Sprintf("BeginDecentralizedRound+Join, %d agents, α=%d, %s codec; n=%d", n, alpha, codec, len(rounds))},
		{"fed.round_bytes", "bytes", float64(last.BytesSent), "RoundReport.BytesSent, last round"},
		{"fed.round_messages", "count", float64(last.Messages), "RoundReport.Messages, last round"},
		{"wire.encode_us", "us", medianOf(enc, time.Microsecond), fmt.Sprintf("Exchange.EncodeInto per payload; n=%d", len(enc))},
		{"wire.fold_us", "us", medianOf(fold, time.Microsecond), fmt.Sprintf("Exchange.Validate+FoldInto per payload; n=%d", len(fold))},
	}, nil
}

// serviceLayer calls the serve endpoints' core functions directly on the
// paused engine, with no HTTP and no lock in between.
func serviceLayer(cfg core.Config, eng *core.Engine) ([]metric, error) {
	home := 0
	fc, err := repeat(50, 100*time.Millisecond, func() error {
		out, err := eng.ForecastNextHour(home % cfg.Homes)
		home++
		if err != nil {
			return err
		}
		return checkForecasts(out, cfg.DevicesPerHome)
	})
	if err != nil {
		return nil, fmt.Errorf("forecast service replay: %w", err)
	}
	plan, err := repeat(50, 100*time.Millisecond, func() error {
		out, err := eng.PlanNextHour(home % cfg.Homes)
		home++
		if err != nil {
			return err
		}
		return checkPlans(out, cfg.DevicesPerHome)
	})
	if err != nil {
		return nil, fmt.Errorf("plan service replay: %w", err)
	}
	return []metric{
		{"serve.forecast_service_ms", "ms", medianOf(fc, time.Millisecond), fmt.Sprintf("Engine.ForecastNextHour on the paused engine; n=%d", len(fc))},
		{"serve.plan_service_ms", "ms", medianOf(plan, time.Millisecond), fmt.Sprintf("Engine.PlanNextHour on the paused engine; n=%d", len(plan))},
	}, nil
}

// checkForecasts verifies one home's served forecast: one 60-entry,
// finite, non-negative forecast per device.
func checkForecasts(fcs []core.DeviceForecast, devices int) error {
	if len(fcs) != devices {
		return fmt.Errorf("%d forecasts for %d devices", len(fcs), devices)
	}
	for _, f := range fcs {
		if len(f.PredKW) != 60 {
			return fmt.Errorf("%s forecast has %d entries", f.DeviceType, len(f.PredKW))
		}
		for _, v := range f.PredKW {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%s forecast value %v", f.DeviceType, v)
			}
		}
	}
	return nil
}

// checkPlans verifies one home's served plan: one 60-entry plan of valid
// modes per device.
func checkPlans(plans []core.DevicePlan, devices int) error {
	if len(plans) != devices {
		return fmt.Errorf("%d plans for %d devices", len(plans), devices)
	}
	for _, p := range plans {
		if len(p.Actions) != 60 {
			return fmt.Errorf("%s plan has %d entries", p.DeviceType, len(p.Actions))
		}
		for _, a := range p.Actions {
			if _, ok := modeByName[a]; !ok {
				return fmt.Errorf("%s plan action %q", p.DeviceType, a)
			}
		}
	}
	return nil
}

var modeByName = map[string]energy.Mode{"off": energy.Off, "standby": energy.Standby, "on": energy.On}

// snapshotLayer times Engine.WriteSnapshot and sizes its output. The v3
// checkpoint refuses scenario runs, which the figure then says.
func snapshotLayer(eng *core.Engine, cfg core.Config) ([]metric, error) {
	var buf bytes.Buffer
	var size int
	ds, err := repeat(3, 100*time.Millisecond, func() error {
		buf.Reset()
		err := eng.WriteSnapshot(&buf)
		size = buf.Len()
		return err
	})
	if errors.Is(err, core.ErrScenarioSnapshot) {
		return []metric{{"core.snapshot_ms", "ms", math.NaN(), "not measurable: checkpoints refuse scenario runs"}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot replay: %w", err)
	}
	return []metric{
		{"core.snapshot_ms", "ms", medianOf(ds, time.Millisecond), fmt.Sprintf("Engine.WriteSnapshot to memory, %s; n=%d", fmtHomes(cfg), len(ds))},
		{"core.snapshot_mb", "MB", float64(size) / 1e6, "snapshot size"},
	}, nil
}
