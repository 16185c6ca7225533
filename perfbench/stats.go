package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fed"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a tail percentile together with the evidence behind it.
type tail struct {
	Value float64 // the sample at the percentile
	Pct   float64 // the percentile actually reported, in percent
	N     int     // samples
	// Beyond counts samples strictly above the reported rank.
	Beyond int
}

func (t tail) String() string {
	return fmt.Sprintf("p%.4g=%.4g (n=%d, %d beyond)", t.Pct, t.Value, t.N, t.Beyond)
}

// tailPercentile reports the nearest-rank p-th percentile (0 < p < 100)
// of xs when at least minBeyond samples lie beyond it; otherwise it falls
// back to the highest percentile that still has minBeyond samples beyond
// it. ok is false when fewer than minBeyond+1 samples exist.
func tailPercentile(xs []float64, p float64) (t tail, ok bool) {
	n := len(xs)
	if n < minBeyond+1 {
		return tail{N: n}, false
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		idx = n - 1 - minBeyond
	}
	return tail{Value: s[idx], Pct: 100 * float64(idx+1) / float64(n), N: n, Beyond: n - 1 - idx}, true
}

// ladderStep is the outcome of one fixed-rate step of the open-loop
// generator.
type ladderStep struct {
	Rate     float64 // offered requests per second
	Sent     int
	Failed   int
	P50, P99 tail // latency from due time, ms
	// Backlog is the number of requests due but not completed when the
	// step's last request fell due; Growing marks a backlog that the
	// latency limit could not absorb.
	Backlog int
	Growing bool
	// LatenessP99 is the generator's own dispatch lateness (ms);
	// OnSchedule is false when it exceeds maxLatenessMS.
	LatenessP99 float64
	OnSchedule  bool
	// Achieved is completed requests per second of step wall time.
	Achieved float64
}

// passes applies the serve_max_rps rule to one step: p99 within the
// latency limit, no failed request, no growing backlog, and the generator
// on schedule.
func (s ladderStep) passes(limitMS float64) bool {
	return s.P99.N > 0 && s.P99.Value <= limitMS && s.Failed == 0 && !s.Growing && s.OnSchedule
}

// growingBacklog decides whether a step ended with a growing backlog: more
// requests outstanding when the last one fell due than the server could
// have accumulated in one stall shorter than the latency limit at the
// offered rate. (The engine lock makes stalls of a few hundred ms normal;
// a queue that only absorbs one stays below this.)
func growingBacklog(backlog int, rate, limitMS float64) bool {
	return float64(backlog) > rate*limitMS/1000
}

// maxPassingRate is the highest offered rate among the steps that pass
// the rule, with ok false when none does.
func maxPassingRate(steps []ladderStep, limitMS float64) (rate float64, ok bool) {
	for _, s := range steps {
		if s.passes(limitMS) && s.Rate > rate {
			rate, ok = s.Rate, true
		}
	}
	return rate, ok
}

// hourFlags classifies one simulated hour by the hour-boundary work the
// configuration schedules for it.
type hourFlags struct {
	Begin bool // hour 0: day prediction, environment build, store decode
	Train bool // a forecaster training bout closes the hour
	Beta  int  // forecast-plane broadcast fires in the hour
	Gamma int  // EMS-plane broadcast fires in the hour
}

func (f hourFlags) String() string {
	s := ""
	if f.Begin {
		s += "begin+"
	}
	if f.Train {
		s += "train+"
	}
	if f.Beta > 0 {
		s += "beta+"
	}
	if f.Gamma > 0 {
		s += "gamma+"
	}
	if s == "" {
		return "ems"
	}
	return s[:len(s)-1]
}

// classifyHour predicts the work of (day, hour) from cfg alone, the way
// the engine schedules it: a bout when (hour+1) is a multiple of
// TrainEveryHours, and a β/γ round for every broadcast instant of the
// period inside the hour (for methods that share that plane).
func classifyHour(cfg core.Config, day, hour int) hourFlags {
	end := day*24*60 + (hour+1)*60
	f := hourFlags{
		Begin: hour == 0,
		Train: cfg.TrainEveryHours > 0 && (hour+1)%cfg.TrainEveryHours == 0,
	}
	if cfg.Method.SharesForecast() && cfg.Method != core.MethodCloud {
		f.Beta = fires(cfg.BetaHours, end)
	}
	if cfg.Method.SharesEMS() {
		f.Gamma = fires(cfg.GammaHours, end)
	}
	return f
}

// fires counts the broadcast instants of a period inside the hour ending
// at absolute minute end.
func fires(periodHours float64, end int) int {
	s := fed.Schedule{PeriodHours: periodHours}
	n := 0
	for m := end - 59; m <= end; m++ {
		if s.Due(m) {
			n++
		}
	}
	return n
}

// timedHour is one StepHour call with its classification.
type timedHour struct {
	Flags hourFlags
	MS    float64
}

// hourSplit derives the per-kind hour costs from a list of timed hours.
type hourSplit struct {
	// EMS is the median hour with no day begin and no bout. Where every
	// hour fires a round (β = γ = 1 h) these hours carry the round.
	EMS   float64
	NEMS  int
	Train float64 // median excess of a bout hour over its no-bout twin
	NTrn  int
	Begin float64 // median excess of hour 0 over its no-begin twin
	NBeg  int
}

// splitHours compares each bout hour and each hour 0 with the median of
// the hours whose flags differ only by that bit, so round work that
// happens to share the hour cancels out.
func splitHours(hours []timedHour) hourSplit {
	byFlags := map[hourFlags][]float64{}
	for _, h := range hours {
		byFlags[h.Flags] = append(byFlags[h.Flags], h.MS)
	}
	var ems, trainX, beginX []float64
	for _, h := range hours {
		f := h.Flags
		if !f.Begin && !f.Train {
			ems = append(ems, h.MS)
		}
		if f.Train && !f.Begin {
			twin := f
			twin.Train = false
			if base, ok := byFlags[twin]; ok {
				trainX = append(trainX, h.MS-median(base))
			}
		}
		if f.Begin {
			twin := f
			twin.Begin = false
			if base, ok := byFlags[twin]; ok {
				beginX = append(beginX, h.MS-median(base))
			}
		}
	}
	return hourSplit{
		EMS: median(ems), NEMS: len(ems),
		Train: median(trainX), NTrn: len(trainX),
		Begin: median(beginX), NBeg: len(beginX),
	}
}
