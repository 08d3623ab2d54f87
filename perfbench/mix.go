package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// traceWindow is how long each traced or untraced window of a traced mix
// lasts; the mix starts untraced. Alternating short windows makes the two sides see the same disk
// fullness and cleaner state, so their rate difference is the tracing
// overhead and not drift.
const traceWindow = time.Second

// Both mixes run two closed-loop clients (the host's CPU count when the
// benchmark was defined), and each client calls Flush(FailPower) after
// every flushEvery of its writes.
const (
	mixClients = 2
	flushEvery = 64
)

// op kinds a closed-loop client times.
const (
	opRead = iota
	opWrite
	opFlush
	opBatch
	numOps
)

// statWindow is the window the end-to-end metrics of a mix are computed
// over; a run reports the median over its windows, so a short stall of the
// host moves one window and not the result.
const statWindow = time.Second

// timing is one call: when it ended, relative to the start of the mix, and
// how long it took.
type timing struct{ at, d time.Duration }

// clientLog is one client's timings and check results.
type clientLog struct {
	rep       *report
	start     time.Time
	lat       [numOps][]timing
	userBytes int64 // bytes passed to Write
}

func newClientLog(start time.Time) *clientLog { return &clientLog{rep: newReport(), start: start} }

// record times a call of the given kind that began at t0 and just ended.
func (cl *clientLog) record(kind int, t0 time.Time) {
	now := time.Now()
	cl.lat[kind] = append(cl.lat[kind], timing{now.Sub(cl.start), now.Sub(t0)})
}

func (cl *clientLog) merge(o *clientLog) {
	cl.rep.merge(o.rep)
	for k := range cl.lat {
		cl.lat[k] = append(cl.lat[k], o.lat[k]...)
	}
	cl.userBytes += o.userBytes
}

// mixResult is what driveMix measured.
type mixResult struct {
	wall        time.Duration
	log         *clientLog
	traced      bool    // odd windows ran with the tracer on
	overheadPct float64 // traced runs only
}

// driveMix runs mixClients clients closed-loop for cfg.seconds: each client issues
// its next call only after the previous one returned, as a file system or
// a netld client does. step performs one call and returns when it is
// done. In a traced run the tracer is switched on and off every
// traceWindow; toggle is called at each switch (after switching on, before
// switching off) so the caller can bracket counters around the traced
// windows.
func driveMix(cfg runConfig, step func(c int, cl *clientLog), toggle func(on bool)) mixResult {
	var stop atomic.Bool
	var ops atomic.Int64
	logs := make([]*clientLog, mixClients)
	if cfg.tr != nil {
		cfg.tr.setPhase("mix")
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < mixClients; c++ {
		logs[c] = newClientLog(start)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				step(c, logs[c])
				ops.Add(1)
			}
		}(c)
	}
	res := mixResult{traced: cfg.tr != nil}
	if cfg.tr == nil {
		time.Sleep(cfg.seconds)
	} else {
		// Switches fall on whole traceWindows from start, so they meet
		// the statWindows mixE2E splits the calls into.
		var onOps, offOps int64
		var onDur, offDur time.Duration
		last, lastOps, on := start, int64(0), false
		end := start.Add(cfg.seconds)
		for w := 1; ; w++ {
			next := start.Add(time.Duration(w) * traceWindow)
			if next.After(end) {
				next = end
			}
			time.Sleep(time.Until(next))
			now, n := time.Now(), ops.Load()
			if on {
				toggle(false)
				cfg.tr.on.Store(false)
				onOps, onDur = onOps+n-lastOps, onDur+now.Sub(last)
			} else {
				offOps, offDur = offOps+n-lastOps, offDur+now.Sub(last)
			}
			if next.Equal(end) {
				break
			}
			if !on {
				cfg.tr.on.Store(true)
				toggle(true)
			}
			on = !on
			last, lastOps = now, n
		}
		offRate := float64(offOps) / offDur.Seconds()
		onRate := float64(onOps) / onDur.Seconds()
		res.overheadPct = (ratio(offRate, onRate) - 1) * 100
	}
	stop.Store(true)
	wg.Wait()
	res.wall = time.Since(start)
	res.log = newClientLog(start)
	for _, l := range logs {
		res.log.merge(l)
	}
	return res
}

// mixE2E fills the wall-clock end-to-end metrics of a closed-loop mix.
// ops_per_s is the median over the mix's whole statWindows of that
// window's call rate; a latency quantile pools the calls of those windows,
// since a flush comes only every flushEvery writes and one window holds
// too few for a steady quantile. A traced mix counts only its untraced
// windows. Sample counts are the calls behind each value.
func mixE2E(rep *report, mix mixResult) {
	nw := int(mix.wall / statWindow)
	if nw < 1 {
		nw = 1
	}
	use := func(w int) bool { return w < nw && (!mix.traced || w%2 == 0) }
	calls := make([]float64, nw)
	var lat [numOps][]time.Duration
	n := 0
	for k, ts := range mix.log.lat {
		for _, t := range ts {
			if w := int(t.at / statWindow); use(w) {
				calls[w]++
				lat[k] = append(lat[k], t.d)
				n++
			}
		}
	}
	var rates []float64
	for w, c := range calls {
		if use(w) {
			rates = append(rates, c/statWindow.Seconds())
		}
	}
	q := func(k int, q float64) sample { return sample{quantile(lat[k], q), len(lat[k])} }
	rep.e2e["ops_per_s"] = sample{median(rates), n}
	rep.e2e["read_p50_us"] = q(opRead, 0.50)
	rep.e2e["write_p50_us"] = q(opWrite, 0.50)
	rep.e2e["flush_p50_us"] = q(opFlush, 0.50)
	// The tails are per-layer metrics: from run to run they spread too
	// much to gate.
	rep.layer["client.read_p99_us"] = quantile(lat[opRead], 0.99)
	rep.layer["client.write_p99_us"] = quantile(lat[opWrite], 0.99)
}
