package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

const (
	// firstSetups is how many times a run builds a system before its first
	// episode, and setupsPerEpisode how many more it builds at least before
	// each episode (besides the episode's own), for at least setupShare of
	// the run's seconds. setup_s is the median of all of them, so its
	// samples are many and spread over the whole run rather than over its
	// first second.
	firstSetups      = 5
	setupsPerEpisode = 2
	setupShare       = 0.02
	// minEpisodes lets every fleet run compare two episodes' digests (and
	// a traced run compare a traced with an untraced episode).
	minEpisodes = 2
)

// timeSetups builds at least n systems from cfg, for at least minDur,
// drops them and appends the wall time of each build to setups.
func timeSetups(cfg core.Config, n int, minDur time.Duration, setups []float64) ([]float64, error) {
	start := time.Now()
	for i := 0; i < n || time.Since(start) < minDur; i++ {
		t0 := time.Now()
		if _, err := core.NewSystem(cfg); err != nil {
			return nil, fmt.Errorf("NewSystem: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// episode is one fleet run from NewSystem through Finish.
type episode struct {
	cfg   core.Config
	sys   *core.System
	eng   *core.Engine
	res   *core.Result
	sink  *telemetry.Sink // set on traced episodes
	hours []timedHour

	setupS, wallS, cpuS, allocMB float64
	finishMS                     float64
	// rootMS is the traced episode's whole span; phaseMS the part covered
	// by setup, hour and finish spans.
	rootMS, phaseMS float64
}

func (ep *episode) homeDays() float64 { return float64(ep.cfg.Homes * ep.cfg.Days) }

// runEpisode builds a fresh system and steps it to the end. With a tracer
// it also attaches a telemetry sink and records spans around each public
// call.
func runEpisode(cfg core.Config, tr *tracer, run string, peak *heapPeak) (*episode, error) {
	ep := &episode{cfg: cfg}
	root := tr.begin("episode", run, 0)
	sp := tr.begin("core.NewSystem", run, root.id)
	sys, err := core.NewSystem(cfg)
	setup := sp.end("")
	if err != nil {
		return nil, fmt.Errorf("NewSystem: %w", err)
	}
	ep.sys, ep.setupS = sys, setup.Seconds()
	phase := setup
	if tr != nil {
		ep.sink = telemetry.NewSink()
		sys.AttachTelemetry(ep.sink)
		// The pool is process-wide: detach it again so later untraced
		// episodes run uninstrumented.
		defer sched.Default().Instrument(nil)
	}
	peak.sample()

	u := usageNow()
	ep.eng = core.NewEngine(sys)
	for !ep.eng.Done() {
		flags := classifyHour(cfg, ep.eng.Day(), ep.eng.Hour())
		sp := tr.begin("core.StepHour", run, root.id)
		err := ep.eng.StepHour()
		d := sp.end(flags.String())
		if err != nil {
			return nil, fmt.Errorf("StepHour: %w", err)
		}
		ep.hours = append(ep.hours, timedHour{Flags: flags, MS: ms(d)})
		phase += d
		peak.sample()
	}
	sp = tr.begin("core.Finish", run, root.id)
	ep.res, err = ep.eng.Finish()
	fin := sp.end("")
	if err != nil {
		return nil, fmt.Errorf("Finish: %w", err)
	}
	ep.wallS, ep.cpuS, ep.allocMB = u.since()
	ep.finishMS = ms(fin)
	phase += fin
	ep.rootMS, ep.phaseMS = ms(root.end("")), ms(phase)
	return ep, nil
}

// digest fingerprints what a run must reproduce exactly from its seed:
// savings, accuracy and bytes on the wire.
func digest(res *core.Result) string {
	h := sha256.New()
	put := func(vs ...float64) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	put(res.DailySavedFrac...)
	put(res.DailySavedKWhPerHome...)
	put(res.PerHomeSavedFracFinal...)
	put(res.ForecastAccuracy)
	_ = binary.Write(h, binary.LittleEndian, []int64{
		res.ForecastNetStats.BytesSent, res.EMSNetStats.BytesSent,
		res.ForecastComms.BytesSent, res.EMSComms.BytesSent,
	})
	if res.DER != nil {
		put(res.DER.CostCents, res.DER.PVUsedKWh)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkResult verifies one episode's Result and returns whether every
// check passed.
func checkResult(r *report, ep *episode) bool {
	cfg, res := ep.cfg, ep.res
	n0 := len(r.failures)
	finite := func(what string, vs ...float64) {
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.fail("%s[%d] = %v is not finite", what, i, v)
				return
			}
		}
	}
	finite("DailySavedFrac", res.DailySavedFrac...)
	finite("DailySavedKWhPerHome", res.DailySavedKWhPerHome...)
	finite("DailyMeanReward", res.DailyMeanReward...)
	finite("PerHomeSavedFracFinal", res.PerHomeSavedFracFinal...)
	finite("PerHomeRewardFinal", res.PerHomeRewardFinal...)
	finite("ForecastAccuracy", res.ForecastAccuracy)
	finite("AccuracyByHour", res.AccuracyByHour[:]...)
	finite("SavedByHour", res.SavedByHour[:]...)
	r.check(len(res.DailySavedFrac) == cfg.Days, "%d daily savings rows for %d days", len(res.DailySavedFrac), cfg.Days)
	for i, f := range append(append([]float64(nil), res.DailySavedFrac...), res.PerHomeSavedFracFinal...) {
		r.check(f >= 0 && f <= 1, "saved fraction %d = %v outside [0,1]", i, f)
	}
	r.check(res.ForecastAccuracy > 0 && res.ForecastAccuracy <= 1, "forecast accuracy %v outside (0,1]", res.ForecastAccuracy)

	// Under all-to-all every round sends N(N−1) messages per model kind:
	// one kind per device type on the forecast plane, the DQN plus each
	// fleet-wide DER family on the EMS plane.
	fc, ems := predictedRounds(cfg, ep.sys, cfg.Days*24)
	pairs := cfg.Homes * (cfg.Homes - 1)
	r.check(res.ForecastNetStats.MessagesSent == fc*pairs,
		"forecast plane sent %d messages, schedule predicts %d rounds × %d = %d",
		res.ForecastNetStats.MessagesSent, fc, pairs, fc*pairs)
	r.check(res.EMSNetStats.MessagesSent == ems*pairs,
		"EMS plane sent %d messages, schedule predicts %d rounds × %d = %d",
		res.EMSNetStats.MessagesSent, ems, pairs, ems*pairs)

	if sc := cfg.Scenario; sc.HasDER() {
		der := res.DER
		if r.check(der != nil, "scenario deploys DER but Result.DER is nil") {
			finite("DER", der.RewardSum, der.GridImportKWh, der.GridExportKWh, der.PVGeneratedKWh, der.PVUsedKWh, der.CostCents)
			finite("DER.DailyCostCents", der.DailyCostCents...)
			want := 0
			for _, spec := range sc.DER {
				if spec.FleetWide() {
					want += cfg.Homes
				} else {
					want += len(spec.Homes)
				}
			}
			r.check(der.Units == want, "DER built %d units, scenario specifies %d", der.Units, want)
			r.check(der.PVUsedKWh <= der.PVGeneratedKWh*(1+1e-12), "PV used %v kWh > generated %v kWh", der.PVUsedKWh, der.PVGeneratedKWh)
			sum := 0.0
			for _, c := range der.DailyCostCents {
				sum += c
			}
			r.check(len(der.DailyCostCents) == cfg.Days, "%d daily DER cost rows for %d days", len(der.DailyCostCents), cfg.Days)
			r.check(math.Abs(sum-der.CostCents) <= 1e-6*math.Max(1, math.Abs(der.CostCents)),
				"Σ DailyCostCents = %v, CostCents = %v", sum, der.CostCents)
		}
	}
	return len(r.failures) == n0
}

// predictedRounds counts the federation rounds the benchmark's own hour
// schedule predicts over the first hours of a run: per plane, broadcast
// instants times the model kinds federated per instant.
func predictedRounds(cfg core.Config, sys *core.System, hours int) (forecastPlane, emsPlane int) {
	types := len(sys.Dataset().DeviceTypes())
	kinds := 1 // the DQN
	if cfg.Method == core.MethodPFDRL {
		if sc := cfg.Scenario; sc != nil {
			for _, spec := range sc.DER {
				if spec.FleetWide() && spec.Kind() != "pv" {
					kinds++
				}
			}
		}
	}
	for h := 0; h < hours; h++ {
		f := classifyHour(cfg, h/24, h%24)
		forecastPlane += f.Beta * types
		emsPlane += f.Gamma * kinds
	}
	return forecastPlane, emsPlane
}

func runFleetWorkload(w workload, opt options) (*report, error) {
	cfg, err := w.config(opt.seed)
	if err != nil {
		return nil, err
	}
	r := &report{}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var peak heapPeak
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)

	setupDur := time.Duration(setupShare * float64(opt.seconds) * float64(time.Second))
	setups, err := timeSetups(cfg, firstSetups, 0, nil)
	if err != nil {
		return nil, err
	}

	var plain, traced []*episode
	var firstDigest string
	// Episodes run until the deadline, except that one which would end
	// more than half an episode past it is not started, so a run of long
	// episodes measures about --seconds rather than up to one episode more.
	var sumEpisodeS float64
	more := func(i int) bool {
		if i < minEpisodes {
			return true
		}
		half := time.Duration(sumEpisodeS / float64(i) / 2 * float64(time.Second))
		return time.Now().Add(half).Before(deadline)
	}
	for i := 0; more(i); i++ {
		// A traced run alternates untraced and traced episodes, so the
		// tracing overhead compares like with like.
		var t *tracer
		if opt.trace && i%2 == 1 {
			t = tr
		}
		if !opt.trace {
			// Drop the previous episode's fleet before building the next,
			// so heap_peak_mb sees one fleet at a time. (A traced run keeps
			// its latest traced fleet for the layer replays.)
			for _, old := range plain {
				old.sys, old.eng = nil, nil
			}
		}
		if setups, err = timeSetups(cfg, setupsPerEpisode, setupDur, setups); err != nil {
			return nil, err
		}
		epStart := time.Now()
		ep, err := runEpisode(cfg, t, fmt.Sprintf("episode-%d", i), &peak)
		if err != nil {
			return nil, err
		}
		sumEpisodeS += time.Since(epStart).Seconds()
		setups = append(setups, ep.setupS)
		r.attempted++
		ok := checkResult(r, ep)
		d := digest(ep.res)
		if i == 0 {
			firstDigest = d
			r.note("result digest %s (savings, accuracy, bytes)", d)
		} else if !r.check(d == firstDigest, "episode %d digest %s differs from episode 0's %s under one seed", i, d, firstDigest) {
			ok = false
		}
		if !ok {
			r.failed++
		}
		if t != nil {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	res := plain[len(plain)-1].res

	// Throughput, CPU and allocation are totals over every untraced
	// episode of the run, so an episode that lands in a slow stretch of a
	// shared host weighs by its length instead of deciding a median.
	var homeDays, wallS, cpuS, allocMB float64
	var hdps, par, dayMS []float64
	for _, ep := range plain {
		hd := ep.homeDays()
		homeDays += hd
		wallS += ep.wallS
		cpuS += ep.cpuS
		allocMB += ep.allocMB
		hdps = append(hdps, hd/ep.wallS)
		par = append(par, ep.cpuS/ep.wallS)
		dayMS = append(dayMS, 1e3*ep.wallS/float64(ep.cfg.Days))
	}
	var hourMS []float64
	for _, ep := range plain {
		for _, h := range ep.hours {
			hourMS = append(hourMS, h.MS)
		}
	}
	p99, ok := tailPercentile(hourMS, 99)
	r.check(ok, "only %d timed hours; the latency tail needs %d", len(hourMS), minBeyond+1)
	n := fmtCount(len(plain), "episodes")
	r.note("per-episode home_days_per_s %.4g", hdps)
	r.e2e = append(r.e2e,
		metric{"setup_s", "s", median(setups), fmtCount(len(setups), "NewSystem calls, median")},
		metric{"home_days_per_s", "home-days/s", homeDays / wallS, fmt.Sprintf("%s × %d days per episode, Σ home-days ÷ Σ wall; %s", fmtHomes(cfg), cfg.Days, n)},
		metric{"cpu_s_per_home_day", "s", cpuS / homeDays, "getrusage user+sys over stepping, Σ CPU ÷ Σ home-days; " + n},
		metric{"alloc_mb_per_home_day", "MB", allocMB / homeDays, "heap bytes allocated over stepping, Σ ÷ Σ home-days; " + n},
		metric{"heap_peak_mb", "MB", peak.mb(), "live heap after GC, sampled at every StepHour boundary"},
		metric{"saved_frac_final", "fraction", res.DailySavedFrac[len(res.DailySavedFrac)-1], fmt.Sprintf("day %d of Result.DailySavedFrac", cfg.Days-1)},
		metric{"forecast_accuracy", "fraction", res.ForecastAccuracy, "Result.ForecastAccuracy"},
		metric{"latency_p50_ms", "ms", median(dayMS), "wall of one simulated day (episode stepping wall ÷ days), median; " + n},
		metric{"latency_p99_ms", "ms", p99.Value, "StepHour " + p99.String()},
	)
	if !opt.trace {
		return r, nil
	}

	parallelism := median(par)
	layers, err := fleetLayers(cfg, opt, r, traced, parallelism)
	if err != nil {
		return nil, err
	}
	r.layers = layers

	var thdps []float64
	for _, ep := range traced {
		thdps = append(thdps, ep.homeDays()/ep.wallS)
	}
	u, t := median(hdps), median(thdps)
	r.info = append(r.info, metric{"trace.overhead_frac", "fraction", (u - t) / u,
		fmt.Sprintf("home_days_per_s untraced %.4g (%d episodes) vs traced %.4g (%d episodes, sink attached)", u, len(plain), t, len(traced))})
	if err := tr.write(opt.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, opt.seed), opt.out); err != nil {
		return nil, err
	}
	return r, nil
}

func fmtHomes(cfg core.Config) string {
	return fmt.Sprintf("%d homes × %d devices", cfg.Homes, cfg.DevicesPerHome)
}

// fleetLayers derives the per-layer metrics of a traced fleet run from its
// traced episodes and the layer replays.
func fleetLayers(cfg core.Config, opt options, r *report, traced []*episode, parallelism float64) ([]metric, error) {
	var hours []timedHour
	var finishes []float64
	var rootMS, phaseMS float64
	for _, ep := range traced {
		hours = append(hours, ep.hours...)
		finishes = append(finishes, ep.finishMS)
		rootMS += ep.rootMS
		phaseMS += ep.phaseMS
	}
	out := hourMetrics(hours, r)
	out = append(out, metric{"core.parallelism", "cpu/wall", parallelism, parallelNote("process CPU ÷ wall over stepping, untraced episodes")})
	r.info = append(r.info,
		metric{"core.finish_ms", "ms", median(finishes), fmtCount(len(finishes), "Finish calls, median")},
		metric{"trace.phase_coverage", "fraction", phaseMS / rootMS,
			fmt.Sprintf("(setup + Σ StepHour + Finish) %.1f ms ÷ traced episode wall %.1f ms", phaseMS, rootMS)},
	)

	ep := traced[len(traced)-1]
	res := ep.res
	r.info = append(r.info,
		metric{"core.fc_train_wall_s", "s", res.ForecastTrainWallTime.Seconds(), "Result.ForecastTrainWallTime, last traced episode"},
		metric{"core.ems_wall_s", "s", res.EMSWallTime.Seconds(), "Result.EMSWallTime, last traced episode"},
	)
	var stepMS, trainMS float64
	for _, h := range ep.hours {
		stepMS += h.MS
		if h.Flags.Train {
			trainMS += h.MS
		}
	}
	trainShare := trainMS / stepMS
	r.info = append(r.info, metric{"core.train_hours_share", "fraction", trainShare,
		fmt.Sprintf("hours with a training bout %.1f ms ÷ all StepHour %.1f ms, last traced episode", trainMS, stepMS)})

	counters, fedS := sinkCounters(ep.sink, ep.homeDays())
	out = append(out, counters...)
	fedShare := fedS / (stepMS / 1e3)
	r.info = append(r.info, metric{"fed.round_share", "fraction", fedShare,
		fmt.Sprintf("EMS-plane synchronous round time %.3f s ÷ stepping %.3f s, last traced episode", fedS, stepMS/1e3)})
	switch opt.workload {
	case "fleet_lstm":
		r.note("load check: training hours take %.0f%% of stepping wall (%s)", 100*trainShare, confirmed(trainShare > 0.5))
	case "fleet_fed":
		r.note("load check: federation rounds take %.0f%% of stepping wall (%s)", 100*fedShare, confirmed(fedShare > 0.5))
	}
	crossCheckRounds(r, cfg, ep.sys, ep.sink, cfg.Days*24)

	snap, err := snapshotLayer(ep.eng, cfg)
	if err != nil {
		return nil, err
	}
	r.info = append(r.info, snap...)
	rep, err := replayLayers(cfg, ep.eng)
	if err != nil {
		return nil, err
	}
	return append(out, rep...), nil
}

func confirmed(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "NOT confirmed"
}

// parallelNote marks a parallelism figure not measurable when the runtime
// may run more threads than the host has cores.
func parallelNote(basis string) string {
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		return fmt.Sprintf("NOT MEASURABLE: GOMAXPROCS %d > num_cpu %d; %s", g, n, basis)
	}
	return basis
}

// hourMetrics turns timed hours into the core.hour_* metrics.
func hourMetrics(hours []timedHour, r *report) []metric {
	var all []float64
	for _, h := range hours {
		all = append(all, h.MS)
	}
	p99, ok := tailPercentile(all, 99)
	if !ok {
		r.fail("only %d timed hours; the hour tail needs %d", len(all), minBeyond+1)
	}
	split := splitHours(hours)
	return []metric{
		{"core.hour_ms.p50", "ms", median(all), fmtCount(len(all), "StepHour calls")},
		{"core.hour_ms.p99", "ms", p99.Value, p99.String()},
		{"core.hour_ems_ms", "ms", split.EMS, fmtCount(split.NEMS, "hours without day begin or bout, median")},
		{"core.hour_train_ms", "ms", split.Train, fmtCount(split.NTrn, "bout hours, median excess over their no-bout twins")},
		{"core.day_begin_ms", "ms", split.Begin, fmtCount(split.NBeg, "hour-0 calls, median excess over their twins")},
	}
}

// sinkCounters reads the counters the program already exports through a
// telemetry sink. It also returns the EMS plane's summed round seconds,
// which are synchronous and so wall time of the stepper.
func sinkCounters(sink *telemetry.Sink, homeDays float64) ([]metric, float64) {
	c := func(name string) float64 { return float64(sink.Counter(name, "").Value()) }
	h := func(name string) *telemetry.Histogram { return sink.Histogram(name, "", telemetry.DurationBuckets()) }
	var ms []metric
	for _, plane := range []string{"forecast", "ems"} {
		lbl := fmt.Sprintf(`{plane=%q}`, plane)
		ms = append(ms,
			metric{"fed.rounds." + plane, "count", c("pfdrl_fed_rounds_total" + lbl), "pfdrl_fed_rounds_total" + lbl},
			metric{"fed.fold_s." + plane, "s", h("pfdrl_fed_fold_seconds" + lbl).Sum(), "pfdrl_fed_fold_seconds" + lbl + " sum"},
			metric{"fed.join_wait_s." + plane, "s", h("pfdrl_fed_join_wait_seconds" + lbl).Sum(), "pfdrl_fed_join_wait_seconds" + lbl + " sum"},
		)
	}
	chunks := c("pfdrl_sched_chunks_total")
	ms = append(ms, metric{"sched.steal_frac", "fraction", c("pfdrl_sched_steals_total") / math.Max(chunks, 1),
		fmt.Sprintf("steals ÷ %.0f chunks", chunks)})
	bytes := c(`pfdrl_fednet_bytes_sent_total{plane="forecast"}`) + c(`pfdrl_fednet_bytes_sent_total{plane="ems"}`)
	ms = append(ms, metric{"fednet.bytes_per_home_day", "bytes", bytes / homeDays,
		fmt.Sprintf("pfdrl_fednet_bytes_sent_total, both planes, ÷ %.4g home-days", homeDays)})
	return ms, h(`pfdrl_fed_round_seconds{plane="ems"}`).Sum()
}

// crossCheckRounds compares the rounds the benchmark's hour schedule
// predicts with the rounds the program counted, per plane.
func crossCheckRounds(r *report, cfg core.Config, sys *core.System, sink *telemetry.Sink, hours int) {
	fc, ems := predictedRounds(cfg, sys, hours)
	for _, p := range []struct {
		plane string
		want  int
	}{{"forecast", fc}, {"ems", ems}} {
		got := sink.Counter(fmt.Sprintf(`pfdrl_fed_rounds_total{plane=%q}`, p.plane), "").Value()
		r.check(got == int64(p.want), "%s plane: sink counted %d rounds, hour schedule predicts %d over %d hours", p.plane, got, p.want, hours)
	}
	r.note("round cross-check over %d hours: predicted forecast %d, ems %d", hours, fc, ems)
}
