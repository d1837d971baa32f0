package main

import (
	"sort"
	"sync"
	"time"
)

// cpuClock reads the servers' CPU time at every slice boundary of the
// measured window.
type cpuClock struct {
	servers []*server
	every   time.Duration
	done    chan struct{}
	wg      sync.WaitGroup
	marks   []time.Duration
}

func startCPUClock(servers []*server, every time.Duration) *cpuClock {
	c := &cpuClock{servers: servers, every: every, done: make(chan struct{})}
	c.read()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		// The window has windowSlices boundaries after its start; the last one
		// is read by stop, when the window's answers are in.
		for k := 1; k < windowSlices; k++ {
			select {
			case <-c.done:
				return
			case <-tick.C:
				c.read()
			}
		}
	}()
	return c
}

func (c *cpuClock) read() {
	if ps, err := fleetStat(c.servers); err == nil {
		c.marks = append(c.marks, ps.cpu)
	}
}

// stop ends the clock, reads the closing boundary, and returns the CPU
// time at each boundary.
func (c *cpuClock) stop() []time.Duration {
	close(c.done)
	c.wg.Wait()
	c.read()
	return c.marks
}

// perSlice splits the window into the slices the CPU clock marked and
// returns each slice's clean functions per second and server CPU ms per
// answered function, by answer completion time.
func perSlice(meas []sample, answers []answer, cpuMarks []time.Duration, every time.Duration) (tput, cpu []float64) {
	n := len(cpuMarks) - 1
	if n < 1 {
		return nil, nil
	}
	clean := make([]int, n)
	answered := make([]int, n)
	for k, s := range meas {
		i := int(s.End / every)
		if i >= n || !answers[k].ok {
			continue
		}
		for _, fa := range answers[k].fns {
			answered[i]++
			if fa.clean {
				clean[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		tput = append(tput, float64(clean[i])/every.Seconds())
		cpu = append(cpu, ratio(ms(cpuMarks[i+1]-cpuMarks[i]), float64(answered[i])))
	}
	return tput, cpu
}

// minTailSlice is the fewest requests a slice needs for its own p99
// (ten beyond it).
const minTailSlice = 100 * minBeyond

// sliceTail splits the window's requests, in send order, into as many
// equal slices (at most windowSlices) as keep minTailSlice requests each, and
// returns the tail reading of one slice and every slice's tail value.
// The metric is the median of those values: a storm of slow disk writes
// or outside load lifts one slice's p99, not the figure. A window with
// fewer than minTailSlice requests is one slice, read by the
// highest percentile it supports.
func sliceTail(meas []sample, latMS []float64) (tail, []float64) {
	k := min(windowSlices, max(1, len(latMS)/minTailSlice))
	order := make([]int, len(meas))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return meas[order[a]].Start < meas[order[b]].Start })
	var first tail
	var vals []float64
	for j := 0; j < k; j++ {
		lo, hi := j*len(order)/k, (j+1)*len(order)/k
		part := make([]float64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			part = append(part, latMS[i])
		}
		t := tailPercentile(part)
		if j == 0 {
			first = t
		}
		vals = append(vals, t.Value)
	}
	return first, vals
}
