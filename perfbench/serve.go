package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/forecast"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// ladderRates is the doubling rate ladder (requests/s). A ladder stops at
// its first failing step.
var ladderRates = []float64{50, 100, 200, 400, 800, 1600, 3200, 6400}

// stepDuration gives the report step the whole budget — at the default
// 40 s, 80 simulated hours, so serve_p99_ms sees at least six of the
// longest lock holds (the bout hours that also fire β/γ) rather than
// whichever one or two a shorter window catches — and every other step 5%
// of it, enough to place serve_max_rps without stretching the run.
func stepDuration(rate float64, budget time.Duration) time.Duration {
	if rate == reportRate {
		return max(budget, 3*time.Second)
	}
	return max(budget/20, time.Second)
}

// answerKey is one (home, minute) a served answer was for.
type answerKey struct{ home, minute int }

// servedAnswers keeps the first forecast and plan served for each
// (home, minute), to score what readers received once the daemon stops.
type servedAnswers struct {
	mu        sync.Mutex
	forecasts map[answerKey][]core.DeviceForecast
	plans     map[answerKey][]core.DevicePlan
}

// apiClient issues the serve_mixed request mix against one daemon.
type apiClient struct {
	http    *http.Client
	base    string
	homes   int
	devices int
	cfgBody []byte // a POST /v1/config body that leaves the settings as they are
	answers *servedAnswers
	tr      *tracer
	parent  int64 // span of the running ladder step
	step    string

	errMu  sync.Mutex
	errors []string
}

func newAPIClient(base string, cfg core.Config, conns int, tr *tracer) *apiClient {
	return &apiClient{
		http: &http.Client{Timeout: 20 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		}},
		base: base, homes: cfg.Homes, devices: cfg.DevicesPerHome, tr: tr,
	}
}

// get decodes a GET endpoint into v.
func (c *apiClient) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do sends request i of a step: one POST /v1/config in every writeEvery
// requests, otherwise three forecasts to every plan, rotating over the
// homes. (A 1:1 mix would put the median between the cheap forecast and
// the dearer plan clusters, where it swings from run to run.) Any
// transport error, non-2xx status or malformed body fails the request.
func (c *apiClient) do(i int) error {
	sp := c.tr.begin("serve.request", fmt.Sprintf("%s/req-%d", c.step, i), c.parent)
	kind, err := c.send(i)
	sp.end(kind)
	if err != nil {
		c.errMu.Lock()
		if len(c.errors) < 5 {
			c.errors = append(c.errors, err.Error())
		}
		c.errMu.Unlock()
	}
	return err
}

func (c *apiClient) send(i int) (string, error) {
	var req *http.Request
	var err error
	home := (i + i/4) % c.homes
	kind := "forecast"
	switch {
	case i%writeEvery == writeEvery-1:
		kind = "config"
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/config", bytes.NewReader(c.cfgBody))
	case i%4 == 3:
		kind = "plan"
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/plan/%d", c.base, home), nil)
	default:
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/forecast/%d", c.base, home), nil)
	}
	if err != nil {
		return kind, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return kind, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return kind, fmt.Errorf("%s: reading body: %w", kind, err)
	}
	if resp.StatusCode/100 != 2 {
		return kind, fmt.Errorf("%s: status %d: %s", kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	switch kind {
	case "config":
		var got, want core.LiveSettings
		if err := json.Unmarshal(body, &got); err != nil {
			return kind, fmt.Errorf("config: %w", err)
		}
		_ = json.Unmarshal(c.cfgBody, &want)
		if got != want {
			return kind, fmt.Errorf("config: applied %+v, posted %+v", got, want)
		}
	case "forecast":
		var v struct {
			Home      int                   `json:"home"`
			Forecasts []core.DeviceForecast `json:"forecasts"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return kind, fmt.Errorf("forecast: %w", err)
		}
		if v.Home != home {
			return kind, fmt.Errorf("forecast: answered home %d for home %d", v.Home, home)
		}
		if err := checkForecasts(v.Forecasts, c.devices); err != nil {
			return kind, fmt.Errorf("forecast: %w", err)
		}
		if a := c.answers; a != nil {
			a.mu.Lock()
			k := answerKey{home, v.Forecasts[0].Minute}
			if _, ok := a.forecasts[k]; !ok {
				a.forecasts[k] = v.Forecasts
			}
			a.mu.Unlock()
		}
	case "plan":
		var v struct {
			Home  int               `json:"home"`
			Plans []core.DevicePlan `json:"plans"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return kind, fmt.Errorf("plan: %w", err)
		}
		if v.Home != home {
			return kind, fmt.Errorf("plan: answered home %d for home %d", v.Home, home)
		}
		if err := checkPlans(v.Plans, c.devices); err != nil {
			return kind, fmt.Errorf("plan: %w", err)
		}
		if a := c.answers; a != nil {
			a.mu.Lock()
			k := answerKey{home, v.Plans[0].Minute}
			if _, ok := a.plans[k]; !ok {
				a.plans[k] = v.Plans
			}
			a.mu.Unlock()
		}
	}
	return kind, nil
}

// runLadder climbs rates until a step fails the serve_max_rps rule,
// counting every request as an attempted operation. around, when set,
// runs just before (true) and just after (false) the report-rate step, so
// the caller can measure the daemon under that fixed load.
func runLadder(c *apiClient, rates []float64, budget time.Duration, conns int, r *report, around func(before bool)) []ladderStep {
	var steps []ladderStep
	for _, rate := range rates {
		c.step = fmt.Sprintf("step-%g", rate)
		if around != nil && rate == reportRate {
			around(true)
		}
		sp := c.tr.begin("serve.step", c.step, 0)
		c.parent = sp.id
		sd := openLoop(rate, stepDuration(rate, budget), conns, c.do)
		sp.end(fmt.Sprintf("%g rps", rate))
		if around != nil && rate == reportRate {
			around(false)
		}
		st := summarize(rate, sd, latencyLimitMS)
		r.attempted += st.Sent
		r.failed += st.Failed
		steps = append(steps, st)
		r.note("ladder %5g rps: sent %d failed %d achieved %.1f/s p50 %.3g ms %s backlog %d lateness p99 %.3g ms → %s",
			rate, st.Sent, st.Failed, st.Achieved, st.P50.Value, st.P99, st.Backlog, st.LatenessP99, passWord(st.passes(latencyLimitMS)))
		if !st.passes(latencyLimitMS) {
			break
		}
	}
	for _, e := range c.errors {
		r.fail("serve request: %s", e)
	}
	return steps
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// serveMetrics reads the request latency at the report rate off a ladder
// (listed as latency_p50_ms and latency_p99_ms; they are serve_p50_ms and
// serve_p99_ms), and records serve_max_rps among the printed figures.
// serve_max_rps moves in steps of 2×, and on a small host it flips between
// neighbouring steps from run to run, so no bound of at most 25% could
// gate it.
func serveMetrics(steps []ladderStep, r *report) []metric {
	var at *ladderStep
	for i := range steps {
		if steps[i].Rate == reportRate {
			at = &steps[i]
		}
	}
	p50, p99 := math.NaN(), math.NaN()
	note := "the ladder failed below the report rate"
	if at != nil {
		p50, p99 = at.P50.Value, at.P99.Value
		note = fmt.Sprintf("at %d rps: %s", reportRate, at.P99)
	} else {
		r.fail("the ladder stopped below %d rps", reportRate)
	}
	maxRate, ok := maxPassingRate(steps, latencyLimitMS)
	if !r.check(ok, "no ladder step met the serve_max_rps rule") {
		maxRate = math.NaN()
	}
	r.info = append(r.info, metric{"serve_max_rps", "req/s", maxRate,
		fmt.Sprintf("highest ladder rate with p99 ≤ %d ms, no failure, no growing backlog, generator on schedule", latencyLimitMS)})
	return []metric{
		{"latency_p50_ms", "ms", p50, fmt.Sprintf("serve_p50_ms: request latency from due time at %d rps, n=%d", reportRate, stepSent(at))},
		{"latency_p99_ms", "ms", p99, "serve_p99_ms: " + note},
	}
}

func stepSent(s *ladderStep) int {
	if s == nil {
		return 0
	}
	return s.Sent
}

// sampleHeap samples the live heap into peak after a forced collection
// every interval, until the returned stop function is called; stop waits
// for the sampler to exit. (At serve_mixed's allocation rate the runtime
// collects only every few seconds, so unforced samples would see a
// handful of collections, and their peak would depend on where those
// happened to fall.)
func sampleHeap(peak *heapPeak, every time.Duration) (stop func()) {
	tick := time.NewTicker(every)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peak.sampleAfterGC()
			}
		}
	}()
	return func() {
		close(quit)
		tick.Stop()
		wg.Wait()
	}
}

// startDaemon serves eng over an in-process HTTP server and steps it in
// the background. stop cancels the daemon, waits for Run to return and
// closes the server.
func startDaemon(eng *core.Engine, opts serve.Options) (url string, stop func() error) {
	opts.StepInterval = stepInterval
	opts.Log = log.New(io.Discard, "", 0)
	d := serve.New(eng, nil, opts)
	mux := http.NewServeMux()
	d.Routes(mux)
	srv := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	return srv.URL, func() error {
		cancel()
		err := <-done
		srv.Close()
		return err
	}
}

func runServeWorkload(w workload, opt options) (*report, error) {
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

	var setups []float64
	var sys *core.System
	for i := 0; i < firstSetups; i++ {
		sp := tr.begin("core.NewSystem", "setup", 0)
		s, err := core.NewSystem(cfg)
		setups = append(setups, sp.end("").Seconds())
		if err != nil {
			return nil, fmt.Errorf("NewSystem: %w", err)
		}
		sys = s
	}
	var sink *telemetry.Sink
	if opt.trace {
		sink = telemetry.NewSink()
		sys.AttachTelemetry(sink)
		defer sched.Default().Instrument(nil)
	}
	eng := core.NewEngine(sys)
	for h := 0; h < warmHours; h++ {
		if err := eng.StepHour(); err != nil {
			return nil, fmt.Errorf("warm-up StepHour: %w", err)
		}
	}
	peak.sampleAfterGC()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "fleet.ckpt")
	url, stop := startDaemon(eng, serve.Options{CheckpointPath: ckpt, CheckpointEvery: 24})
	c := newAPIClient(url, cfg, opt.conns, tr)
	c.answers = &servedAnswers{forecasts: map[answerKey][]core.DeviceForecast{}, plans: map[answerKey][]core.DevicePlan{}}
	var ls core.LiveSettings
	if err := c.get("/v1/config", &ls); err != nil {
		stop()
		return nil, err
	}
	c.cfgBody, _ = json.Marshal(ls)

	// The daemon-side costs are measured over the report step alone: its
	// offered load is fixed, where the steps above it vary with how far the
	// ladder climbs.
	var win struct {
		u                    usage
		st0, st1             serve.FleetStatus
		wallS, cpuS, allocMB float64
		err                  error
		stopHeap             func()
		done                 bool
	}
	around := func(before bool) {
		if before {
			win.u = usageNow()
			win.err = c.get("/v1/fleet/status", &win.st0)
			win.stopHeap = sampleHeap(&peak, time.Second)
			return
		}
		win.stopHeap()
		if err := c.get("/v1/fleet/status", &win.st1); win.err == nil {
			win.err = err
		}
		win.wallS, win.cpuS, win.allocMB = win.u.since()
		win.done = true
	}
	ladderStart := time.Now()
	steps := runLadder(c, ladderRates, time.Duration(opt.seconds)*time.Second, opt.conns, r, around)
	ladderS := time.Since(ladderStart).Seconds()
	var st serve.FleetStatus
	errStatus := c.get("/v1/fleet/status", &st)
	c.http.CloseIdleConnections()
	if err := stop(); err != nil {
		r.fail("daemon Run returned %v", err)
	}
	if !win.done {
		// The metrics of the report step do not exist; say so in the
		// report rather than without one.
		r.fail("the ladder never reached the %d rps step", reportRate)
		win.st0, win.st1 = st, st
	}
	for _, err := range []error{win.err, errStatus} {
		if err != nil {
			return nil, fmt.Errorf("fleet status: %w", err)
		}
	}

	hours := (win.st1.Minute - win.st0.Minute) / 60
	homeDays := float64(cfg.Homes*hours) / 24
	wallS := win.wallS
	if !r.check(hours > 0, "the daemon stepped no hour during the report step") {
		homeDays = math.NaN()
	}
	if total := st.Minute/60 - warmHours; total >= 24 {
		fi, err := os.Stat(ckpt)
		r.check(st.Checkpoints > 0 && err == nil && fi.Size() > 0, "%d hours stepped but no checkpoint written (%d rotations)", total, st.Checkpoints)
	}
	// As many setups again after the ladder, so setup_s samples both ends
	// of the run.
	if setups, err = timeSetups(cfg, firstSetups, 0, setups); err != nil {
		return nil, err
	}
	saved, acc, nAnswers := scoreAnswers(eng, c.answers)
	r.check(nAnswers > 0, "no served answer to score")

	r.e2e = append(r.e2e,
		metric{"setup_s", "s", median(setups), fmtCount(len(setups), "NewSystem calls, median")},
		metric{"home_days_per_s", "home-days/s", homeDays / wallS, fmt.Sprintf("%d hours × %d homes stepped by the daemon in the %.2f s report step", hours, cfg.Homes, wallS)},
		metric{"cpu_s_per_home_day", "s", win.cpuS / homeDays, "getrusage user+sys over the report step, stepping and serving"},
		metric{"alloc_mb_per_home_day", "MB", win.allocMB / homeDays, "heap bytes allocated over the report step"},
		metric{"heap_peak_mb", "MB", peak.mb(), "live heap after a forced GC at the end of warm-up and every second of the report step"},
		metric{"saved_frac_final", "fraction", saved, fmt.Sprintf("standby energy the served plans switch off, %d (home, hour) plans", len(c.answers.plans))},
		metric{"forecast_accuracy", "fraction", acc, fmt.Sprintf("mean accuracy of %d served (home, hour) forecasts against the trace", len(c.answers.forecasts))},
	)
	r.e2e = append(r.e2e, serveMetrics(steps, r)...)
	if !opt.trace {
		return r, nil
	}

	layers, err := serveLayers(cfg, eng, sink, opt, r, steps)
	if err != nil {
		return nil, err
	}
	r.layers = layers
	r.info = append(r.info, metric{"trace.tracer_cost_frac", "fraction", ms(tr.cost) / (ladderS * 1e3),
		fmt.Sprintf("time inside the benchmark's span recorder %.3g ms ÷ ladder wall %.3g s; the sink stays attached, so no untraced twin exists in one run", ms(tr.cost), ladderS)})
	if err := tr.write(opt.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, opt.seed), opt.out); err != nil {
		return nil, err
	}
	return r, nil
}

// scoreAnswers scores the served answers against the corpus once the
// daemon has stopped: the fraction of standby energy the served plans
// switch off, and the mean accuracy of the served forecasts.
func scoreAnswers(eng *core.Engine, a *servedAnswers) (saved, acc float64, n int) {
	ds := eng.System().Dataset()
	var savedKWh, standbyKWh, accSum float64
	var accN int
	for k, fcs := range a.forecasts {
		for _, f := range fcs {
			tr := ds.Homes[k.home].TraceByType(f.DeviceType)
			truth := tr.Window(f.Minute, f.Minute+60)
			accSum += forecast.MeanAccuracy(f.PredKW, truth, forecast.FloorFor(tr.Device.OnKW))
			accN++
		}
	}
	for k, plans := range a.plans {
		for _, p := range plans {
			tr := ds.Homes[k.home].TraceByType(p.DeviceType)
			truth := tr.Window(p.Minute, p.Minute+60)
			for m, act := range p.Actions {
				if tr.Device.ClassifyMode(truth[m]) == energy.Standby {
					kwh := tr.Device.StandbyKW / 60
					standbyKWh += kwh
					if modeByName[act] == energy.Off {
						savedKWh += kwh
					}
				}
			}
		}
	}
	return savedKWh / standbyKWh, accSum / float64(accN), len(a.forecasts) + len(a.plans)
}

// replayHours is how many hours the serve traced run steps directly once
// the daemon has stopped: five days leave ten samples beyond p91.7, inside
// the training hours that set the lock's hold time.
const replayHours = 5 * 24

// serveLayers steps the paused serve engine directly for replayHours,
// ending right after an hour 0 (whose day begin lands any forecast round
// still in flight), then runs the layer replays on it.
func serveLayers(cfg core.Config, eng *core.Engine, sink *telemetry.Sink, opt options, r *report, steps []ladderStep) ([]metric, error) {
	var hours []timedHour
	u := usageNow()
	for len(hours) < replayHours || !hours[len(hours)-1].Flags.Begin {
		flags := classifyHour(cfg, eng.Day(), eng.Hour())
		t0 := time.Now()
		if err := eng.StepHour(); err != nil {
			return nil, fmt.Errorf("StepHour: %w", err)
		}
		hours = append(hours, timedHour{Flags: flags, MS: ms(time.Since(t0))})
	}
	wallS, cpuS, _ := u.since()
	out := hourMetrics(hours, r)
	out = append(out, metric{"core.parallelism", "cpu/wall", cpuS / wallS, parallelNote(fmt.Sprintf("process CPU ÷ wall over %d directly stepped hours", len(hours)))})
	stepped := eng.Day()*24 + eng.Hour()
	counters, _ := sinkCounters(sink, float64(cfg.Homes*stepped)/24)
	out = append(out, counters...)
	crossCheckRounds(r, cfg, eng.System(), sink, stepped)
	hourP99 := out[1] // core.hour_ms.p99
	for _, s := range steps {
		if s.Rate == reportRate {
			r.note("load check: serve_p99_ms %.4g at %d rps vs core.hour_ms.p99 %.4g (lock held through a step)", s.P99.Value, reportRate, hourP99.Value)
		}
	}
	snap, err := snapshotLayer(eng, cfg)
	if err != nil {
		return nil, err
	}
	r.info = append(r.info, snap...)
	rep, err := replayLayers(cfg, eng)
	if err != nil {
		return nil, err
	}
	return append(out, rep...), nil
}
