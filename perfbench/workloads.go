package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/scenario"
)

// derScenarioPath is the shipped scenario fleet_fed layers on, read from
// the root of the checkout the benchmark runs in.
const derScenarioPath = "scenarios/der_dispatch.json"

// workload is one named input set. The benchmark hands the program only
// the core.Config built from the seed.
type workload struct {
	name  string
	serve bool // drive the fleet through the serve daemon
	// config builds the workload's configuration for a seed.
	config func(seed int64) (core.Config, error)
}

var workloads = []workload{
	{
		// The paper's workload: forecaster training bounds it, and
		// federation fires only twice a day.
		name: "fleet_lstm",
		config: func(seed int64) (core.Config, error) {
			cfg := core.DefaultConfig(core.MethodPFDRL)
			cfg.Homes, cfg.DevicesPerHome, cfg.Days = 8, 3, 2
			cfg.Seed = seed
			return cfg, nil
		},
	},
	{
		// Hourly β/γ rounds over 32 homes plus DER dispatch heads: the
		// federation planes and the DQN bound it, and the LR forecaster
		// costs almost nothing.
		name: "fleet_fed",
		config: func(seed int64) (core.Config, error) {
			cfg := core.DefaultConfig(core.MethodPFDRL)
			cfg.Homes, cfg.DevicesPerHome, cfg.Days = 32, 3, 1
			cfg.ForecastKind = forecast.KindLR
			cfg.BetaHours, cfg.GammaHours = 1, 1
			cfg.Seed = seed
			sc, err := scenario.Load(derScenarioPath)
			if err != nil {
				return cfg, fmt.Errorf("fleet_fed: %w", err)
			}
			cfg.Scenario = sc
			return cfg, nil
		},
	},
	{
		// The only request-serving surface: reads queue behind the engine
		// lock the stepper holds through each simulated hour.
		name:  "serve_mixed",
		serve: true,
		config: func(seed int64) (core.Config, error) {
			cfg := core.DefaultConfig(core.MethodPFDRL)
			cfg.Homes, cfg.DevicesPerHome = 4, 3
			// Long enough that the daemon never runs out of days.
			cfg.Days = 60
			cfg.Seed = seed
			return cfg, nil
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// serve_mixed's constants.
const (
	// stepInterval is the daemon's pace: one simulated hour per interval.
	// At 250 ms the stepper holds the engine lock about half the time, so
	// the median read sits on the edge between waiting and not waiting and
	// swings by 10× from run to run; at 500 ms it holds the lock about a
	// quarter of the time and the median measures the read path.
	stepInterval = 500 * time.Millisecond
	// warmHours steps the serve fleet directly before the daemon starts,
	// so forecaster training has its full 48 h lookback when the ladder
	// begins instead of growing through it.
	warmHours = 48
	// latencyLimitMS is the serve_max_rps latency limit on p99.
	latencyLimitMS = 500
	// reportRate is the ladder step serve_p50_ms and serve_p99_ms are
	// read at.
	reportRate = 200
	// writeEvery makes one request in this many a POST /v1/config.
	writeEvery = 50
	// maxLatenessMS is how late the generator may dispatch (p99) before a
	// step no longer counts as on schedule.
	maxLatenessMS = 50
)
