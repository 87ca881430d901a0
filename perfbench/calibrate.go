package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// The reference machine is shared, and its speed drifts by tens of percent
// from one run to the next; missions per CPU second drift just as much, so
// the cores themselves run slower. Every run therefore interleaves a fixed
// kernel with the workload — about once a second, on as many goroutines as
// the workload has workers — and untraced runs scale the gated rate and
// latencies by the kernel's median time in the run over calibRef. The kernel
// shares no code with the program under test, so a change to the program
// moves the scaled numbers exactly as it moves the raw ones, while the
// machine's drift largely cancels. The raw values and the factor are kept in
// the result file. README.md records the raw and scaled spreads that make
// this necessary.
const (
	calibRef   = 50 * time.Millisecond // the kernel's time on the reference machine at rest
	calibEvery = time.Second
	calibIters = 160_000
)

// calibrator runs the kernel between timed slices and keeps its times.
type calibrator struct {
	workers int
	last    time.Time
	samples []float64 // seconds
}

func newCalibrator(workers int) *calibrator { return &calibrator{workers: workers, last: time.Now()} }

// maybe runs the kernel when calibEvery has passed since it last ran.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.run()
	}
}

func (c *calibrator) run() {
	start := time.Now()
	out := make([]float64, c.workers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = kernel(calibIters)
		}()
	}
	wg.Wait()
	c.samples = append(c.samples, time.Since(start).Seconds())
	c.last = time.Now()
}

// factor is how much slower than at rest the machine ran: the kernel's
// median time over calibRef. Times are divided by it, rates multiplied.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		c.run()
	}
	return quantile(c.samples, 0.5) / calibRef.Seconds()
}

// kernel is a fixed mix of the work a mission does — floating-point math,
// map updates, small sorts and allocations.
func kernel(n int) float64 {
	m := make(map[int]float64, 512)
	buf := make([]float64, 0, 64)
	acc := 0.0
	for i := range n {
		x := float64(i%1000) * 0.001
		acc += math.Sqrt(x*x+1) * math.Sin(x)
		m[i%512] += acc
		if i%64 == 0 {
			buf = buf[:0]
			for j := range 64 {
				buf = append(buf, math.Mod(acc*float64(j+1), 7))
			}
			sort.Float64s(buf)
			acc += slices.Clone(buf[:16])[5]
		}
	}
	return acc + m[7]
}
