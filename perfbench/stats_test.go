package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so the helper must sort
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n              int
		value, pct     float64
		beyond         int
		ok, fellBackTo bool
	}{
		// 1000 samples: p99 is rank 990 with 10 samples beyond it.
		{n: 1000, value: 990, pct: 99, beyond: 10, ok: true},
		// 5000 samples: p99 is rank 4950, 50 beyond.
		{n: 5000, value: 4950, pct: 99, beyond: 50, ok: true},
		// 400 samples: p99 would leave 4 beyond, so the rule falls back
		// to the highest percentile with 10 beyond: rank 390, p97.5.
		{n: 400, value: 390, pct: 97.5, beyond: 10, ok: true},
		// 11 samples: the median-ish rank 1 is all that has 10 beyond.
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10, ok: true},
		{n: 10, ok: false},
	} {
		got, ok := tailPercentile(seq(tc.n), 99)
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
		}
		if !ok {
			continue
		}
		if got.Value != tc.value || math.Abs(got.Pct-tc.pct) > 1e-9 || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v pct %v beyond %d", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, got.Beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestOpenLoopTimesFromDueTime stalls the first request of a one-worker
// open loop: the requests due during the stall must carry the wait in
// their latency, while the generator itself stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	sd := openLoop(100, 500*time.Millisecond, 1, func(i int) error {
		calls.Add(1)
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if n := len(sd.due); n != 50 || calls.Load() != 50 {
		t.Fatalf("sent %d requests (%d calls), want 50", n, calls.Load())
	}
	if sd.due[1] != 10*time.Millisecond {
		t.Fatalf("request 1 due at %v, want 10ms", sd.due[1])
	}
	// Request 1 fell due 10 ms in but could only start after the stall.
	if lat := sd.done[1] - sd.due[1]; lat < stall-20*time.Millisecond {
		t.Errorf("request 1 latency %v does not include the %v it queued behind the stall", lat, stall)
	}
	st := summarize(100, sd, latencyLimitMS)
	if !st.OnSchedule || st.LatenessP99 > maxLatenessMS {
		t.Errorf("generator lateness p99 %.3g ms: a stalled worker must not delay dispatch", st.LatenessP99)
	}
	if st.P50.Value >= ms(stall) {
		t.Errorf("median latency %.3g ms: the stall should only delay the requests behind it", st.P50.Value)
	}
}

// TestSummarizeFlagsLateGenerator feeds a step whose dispatcher released
// every request 80 ms late.
func TestSummarizeFlagsLateGenerator(t *testing.T) {
	n := 100
	sd := stepData{due: make([]time.Duration, n), release: make([]time.Duration, n), done: make([]time.Duration, n), failed: make([]bool, n)}
	for i := range sd.due {
		sd.due[i] = time.Duration(i) * 10 * time.Millisecond
		sd.release[i] = sd.due[i] + 80*time.Millisecond
		sd.done[i] = sd.release[i] + time.Millisecond
	}
	st := summarize(100, sd, latencyLimitMS)
	if st.OnSchedule {
		t.Errorf("lateness p99 %.3g ms counted as on schedule", st.LatenessP99)
	}
	if math.Abs(st.P50.Value-81) > 1e-6 {
		t.Errorf("latency p50 %.6g ms, want 81 (timed from due, lateness included)", st.P50.Value)
	}
	if st.passes(latencyLimitMS) {
		t.Error("a step with a late generator must not pass")
	}
}

func TestGrowingBacklog(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backlog int
		want    bool
	}{
		{"steady", 1, false},
		// At 400 req/s a 400 ms lock hold right at the end of the step
		// leaves 160 requests queued: a stall, not growth.
		{"one stall shorter than the limit", 160, false},
		{"exactly one limit's worth", 200, false},
		{"more than one limit's worth", 201, true},
	} {
		if got := growingBacklog(tc.backlog, 400, latencyLimitMS); got != tc.want {
			t.Errorf("%s: growing=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSummarizeCountsBacklogAtLastDue builds a step whose server stops
// answering a quarter of the way in: everything due after that is still
// outstanding when the last request falls due.
func TestSummarizeCountsBacklogAtLastDue(t *testing.T) {
	n := 400 // 1 s at 400 req/s
	sd := stepData{due: make([]time.Duration, n), release: make([]time.Duration, n), done: make([]time.Duration, n), failed: make([]bool, n)}
	for i := range sd.due {
		sd.due[i] = time.Duration(i) * 2500 * time.Microsecond
		sd.release[i] = sd.due[i]
		sd.done[i] = sd.due[i] + time.Millisecond
		if i >= n/4 {
			sd.done[i] = 2 * time.Second
		}
	}
	st := summarize(400, sd, latencyLimitMS)
	if st.Backlog != 3*n/4 || !st.Growing || st.passes(latencyLimitMS) {
		t.Errorf("backlog %d growing %v passes %v, want %d, true, false", st.Backlog, st.Growing, st.passes(latencyLimitMS), 3*n/4)
	}
}

func TestMaxPassingRateLadderRule(t *testing.T) {
	ok := func(rate, p99 float64) ladderStep {
		return ladderStep{Rate: rate, P99: tail{Value: p99, N: 1000, Pct: 99, Beyond: 10}, OnSchedule: true}
	}
	for _, tc := range []struct {
		name  string
		steps []ladderStep
		want  float64
		ok    bool
	}{
		{"p99 crosses the limit", []ladderStep{ok(50, 5), ok(100, 6), ok(200, 300), ok(400, 501)}, 200, true},
		{"limit is inclusive", []ladderStep{ok(50, 5), ok(100, 500)}, 100, true},
		{"a failed request fails the step", func() []ladderStep {
			s := []ladderStep{ok(50, 5), ok(100, 6)}
			s[1].Failed = 1
			return s
		}(), 50, true},
		{"a growing backlog fails the step", func() []ladderStep {
			s := []ladderStep{ok(50, 5), ok(100, 6)}
			s[1].Growing = true
			return s
		}(), 50, true},
		{"a late generator fails the step", func() []ladderStep {
			s := []ladderStep{ok(50, 5), ok(100, 6)}
			s[1].OnSchedule = false
			return s
		}(), 50, true},
		{"no tail, no pass", []ladderStep{{Rate: 50, OnSchedule: true}}, 0, false},
		{"nothing passes", []ladderStep{ok(50, 900)}, 0, false},
	} {
		got, gotOK := maxPassingRate(tc.steps, latencyLimitMS)
		if got != tc.want || gotOK != tc.ok {
			t.Errorf("%s: got %v,%v want %v,%v", tc.name, got, gotOK, tc.want, tc.ok)
		}
	}
}

func TestClassifyHour(t *testing.T) {
	cfg := core.DefaultConfig(core.MethodPFDRL) // β = γ = 12 h, a bout every 4 h
	for _, tc := range []struct {
		day, hour int
		want      hourFlags
	}{
		{0, 0, hourFlags{Begin: true}},
		{0, 2, hourFlags{}},
		{0, 3, hourFlags{Train: true}},
		{0, 11, hourFlags{Train: true, Beta: 1, Gamma: 1}},
		{1, 0, hourFlags{Begin: true}},
		{1, 23, hourFlags{Train: true, Beta: 1, Gamma: 1}},
	} {
		if got := classifyHour(cfg, tc.day, tc.hour); got != tc.want {
			t.Errorf("day %d hour %d: got %v, want %v", tc.day, tc.hour, got, tc.want)
		}
	}

	hourly := cfg
	hourly.BetaHours, hourly.GammaHours = 1, 1
	// Minute 0 never fires, but the first hour ends at minute 60, which does.
	if got := classifyHour(hourly, 0, 0); got != (hourFlags{Begin: true, Beta: 1, Gamma: 1}) {
		t.Errorf("hourly rounds, hour 0: %v", got)
	}
	half := cfg
	half.BetaHours = 0.5
	if got := classifyHour(half, 0, 5).Beta; got != 2 {
		t.Errorf("β = 30 min fires %d times an hour, want 2", got)
	}
	local := cfg
	local.Method = core.MethodLocal
	if got := classifyHour(local, 0, 11); got != (hourFlags{Train: true}) {
		t.Errorf("Local shares nothing, hour 11: %v", got)
	}
}

func TestSplitHoursComparesTwins(t *testing.T) {
	var hours []timedHour
	cfg := core.DefaultConfig(core.MethodPFDRL)
	for day := 0; day < 2; day++ {
		for h := 0; h < 24; h++ {
			f := classifyHour(cfg, day, h)
			ms := 10.0
			if f.Train {
				ms += 100
			}
			if f.Beta > 0 {
				ms += 5
			}
			if f.Begin {
				ms += 40
			}
			hours = append(hours, timedHour{Flags: f, MS: ms})
		}
	}
	s := splitHours(hours)
	if s.EMS != 10 || s.Train != 100 || s.Begin != 40 {
		t.Errorf("split %+v, want ems 10, train 100, begin 40", s)
	}
	// Bout hours 11 and 23 also fire β/γ and have no round-only twin, so
	// only the four bout-only hours a day count.
	if s.NTrn != 8 || s.NBeg != 2 || s.NEMS != 2*(24-1-6) {
		t.Errorf("sample counts %+v", s)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "episode", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "hour", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "hour", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "finish", Start: 90, End: 120},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	// Children cover [10,60) and [90,100) of the episode's [0,100).
	if e := got["episode"]; e.SelfMS != 40 || e.TotalMS != 100 {
		t.Errorf("episode %+v, want self 40", e)
	}
	if h := got["hour"]; h.Count != 2 || h.SelfMS != 60 {
		t.Errorf("hour %+v", h)
	}
}
