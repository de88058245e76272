package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference machine is two vCPUs of a shared host, and the host changes
// speed under it: over minutes the same binary on the same inputs runs up to
// 40% slower and then fast again, every workload and the set-up alike, with
// nothing else running in the VM. No statistic over the runs of one invocation
// removes a drift that outlasts the invocation. So the timed pass carries its
// own clock: a fixed piece of work that owes nothing to this repository's
// code, run in short slices between the training runs and after the set-ups.
// The mean slice time over the reference time is how much slower than the
// reference the machine was while the pass ran, and the two time metrics,
// samples_per_s and setup_s, are reported at reference speed: throughput
// times the slowdown, set-up time over it. As measured, the ten invocations
// of a workload spread over 6–21% of their median in a calm hour and 23–28%
// in a noisy one; at reference speed over 4–7.4% (README.md, Baseline).

// calReferenceMS is the time of one slice on the reference machine in an
// ordinary hour (25 ms at its quietest). It only fixes the scale of the two
// metrics and is the same on every commit.
const calReferenceMS = 30.0

const (
	calBufBytes = 4 << 20
	calCopies   = 8
	calFlops    = 10_000_000
	calRounds   = 3
)

// speedometer collects calibration slices. Its buffers are allocated on the
// first slice and kept, so a slice touches no fresh memory.
type speedometer struct {
	src, dst [][]byte  // one pair per goroutine
	slices   []float64 // ms
}

// slice runs the calibration work once on every processor the benchmark may
// use, all at once, as the ranks do: streaming copies larger than a core's
// cache and a dependent chain of float adds. It returns the mean time of the
// goroutines in ms.
func (s *speedometer) slice() float64 {
	procs := runtime.GOMAXPROCS(0)
	for len(s.src) < procs {
		s.src = append(s.src, make([]byte, calBufBytes))
		s.dst = append(s.dst, make([]byte, calBufBytes))
	}
	took := make([]time.Duration, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src, dst := s.src[g], s.dst[g]
			t0 := time.Now()
			var acc float32
			for r := 0; r < calRounds; r++ {
				for c := 0; c < calCopies; c++ {
					copy(dst, src)
				}
				for i := 0; i < calFlops; i++ {
					acc += float32(i&7) * 0.5
				}
			}
			src[0] = byte(acc) // keep the chain alive
			took[g] = time.Since(t0)
		}(g)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return ms(sum) / float64(procs)
}

// after takes the slices owed for d of measured work: four for every second,
// two at the least, so that a ninth of a pass is calibration however long the
// workload's runs are. Single slices differ by 13% of their mean and single
// runs by 7%, and a slice is thirty times cheaper than a second of training:
// the reported product is steadiest when the clock is read this often.
func (s *speedometer) after(d time.Duration) {
	for n := max(2, int((d+125*time.Millisecond)/(250*time.Millisecond))); n > 0; n-- {
		s.slices = append(s.slices, s.slice())
	}
}

// slowdown is the mean slice time over the reference time: 1.25 says the
// machine ran the calibration work 25% slower than the reference does.
func (s *speedometer) slowdown() float64 {
	var sum float64
	for _, x := range s.slices {
		sum += x
	}
	return sum / float64(len(s.slices)) / calReferenceMS
}
