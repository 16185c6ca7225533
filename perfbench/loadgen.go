package main

import (
	"sync"
	"time"
)

// stepData is the raw record of one open-loop step. Times are offsets
// from the step's start.
type stepData struct {
	due, release, done []time.Duration
	failed             []bool
}

// openLoop runs one open-loop step: request i falls due i/rate after the
// step starts, whether or not earlier requests have completed. A single
// dispatcher releases each request at its due time into a queue that
// conns workers drain, calling do(i). Each request is timed from its due
// time, so a stall also charges every request that queued behind it; the
// dispatcher's own lateness (release − due) is recorded separately.
func openLoop(rate float64, dur time.Duration, conns int, do func(i int) error) stepData {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	sd := stepData{
		due:     make([]time.Duration, n),
		release: make([]time.Duration, n),
		done:    make([]time.Duration, n),
		failed:  make([]bool, n),
	}
	for i := range sd.due {
		sd.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	// Buffered for every request of the step, so the dispatcher never
	// blocks on busy workers and its lateness is its own.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(i)
				sd.done[i] = time.Since(start)
				sd.failed[i] = err != nil
			}
		}()
	}
	for i := 0; i < n; i++ {
		if wait := sd.due[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sd.release[i] = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return sd
}

// summarize applies the percentile and ladder rules to one step.
func summarize(rate float64, sd stepData, limitMS float64) ladderStep {
	n := len(sd.due)
	lat := make([]float64, n)
	late := make([]float64, n)
	lastDue := sd.due[n-1]
	var end time.Duration
	st := ladderStep{Rate: rate, Sent: n}
	for i := 0; i < n; i++ {
		lat[i] = ms(sd.done[i] - sd.due[i])
		late[i] = ms(sd.release[i] - sd.due[i])
		if sd.failed[i] {
			st.Failed++
		}
		if sd.done[i] > lastDue {
			st.Backlog++
		}
		end = max(end, sd.done[i])
	}
	st.P50 = tail{Value: median(lat), Pct: 50, N: n, Beyond: n / 2}
	st.P99, _ = tailPercentile(lat, 99)
	lateTail, ok := tailPercentile(late, 99)
	st.LatenessP99 = lateTail.Value
	st.OnSchedule = ok && lateTail.Value <= maxLatenessMS
	st.Growing = growingBacklog(st.Backlog, rate, limitMS)
	st.Achieved = float64(n-st.Failed) / end.Seconds()
	return st
}
