package eventsim

import "fmt"

// PSResource is a processor-sharing resource: n concurrent jobs each
// progress at min(capacity/n, perJobCap) bytes per second. It models the
// parallel file system's aggregate bandwidth (fair-shared across reading
// clients, each additionally limited by its own small-file ceiling) and
// network links.
//
// The implementation keeps each active job's remaining bytes, advances
// them lazily at every arrival/completion, and reschedules the earliest
// completion; stale completion events are invalidated by a generation
// counter.
type PSResource struct {
	eng       *Engine
	capacity  float64 // aggregate bytes/s
	perJobCap float64 // per-job ceiling, 0 = none
	jobs      map[int]*psJob
	nextID    int
	lastTime  float64
	gen       int
}

type psJob struct {
	remaining float64
	done      func()
}

// NewPSResource creates a processor-sharing resource on the engine.
func NewPSResource(eng *Engine, capacity, perJobCap float64) *PSResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("eventsim: NewPSResource: capacity %v must be positive", capacity))
	}
	return &PSResource{eng: eng, capacity: capacity, perJobCap: perJobCap, jobs: map[int]*psJob{}}
}

// rate returns the current per-job rate.
func (r *PSResource) rate() float64 {
	n := float64(len(r.jobs))
	if n == 0 {
		return 0
	}
	rate := r.capacity / n
	if r.perJobCap > 0 && rate > r.perJobCap {
		rate = r.perJobCap
	}
	return rate
}

// advance progresses all active jobs to the current time.
func (r *PSResource) advance() {
	dt := r.eng.Now() - r.lastTime
	r.lastTime = r.eng.Now()
	if dt <= 0 || len(r.jobs) == 0 {
		return
	}
	progressed := r.rate() * dt
	for _, j := range r.jobs {
		j.remaining -= progressed
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

// reschedule computes the earliest completion and schedules it.
func (r *PSResource) reschedule() {
	r.gen++
	if len(r.jobs) == 0 {
		return
	}
	minRemaining := -1.0
	for _, j := range r.jobs {
		if minRemaining < 0 || j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	delay := minRemaining / r.rate()
	gen := r.gen
	r.eng.Schedule(delay, func() {
		if gen != r.gen {
			return // superseded by a later arrival/completion
		}
		r.complete()
	})
}

// complete finishes every job whose remaining work has reached zero. The
// threshold is a *time-domain* epsilon (one nanosecond of service at the
// current rate): a pure byte epsilon stalls when float rounding leaves a
// residual smaller than the representable time step, scheduling zero-width
// events forever.
func (r *PSResource) complete() {
	r.advance()
	threshold := r.rate() * 1e-9
	var dones []func()
	for id, j := range r.jobs {
		if j.remaining <= threshold {
			dones = append(dones, j.done)
			delete(r.jobs, id)
		}
	}
	r.reschedule()
	for _, d := range dones {
		d()
	}
}

// Submit enqueues a job of the given bytes; done runs at completion.
// Zero-byte jobs complete immediately (via a zero-delay event).
func (r *PSResource) Submit(bytes float64, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("eventsim: Submit(%v): negative size", bytes))
	}
	if bytes == 0 {
		r.eng.Schedule(0, done)
		return
	}
	r.advance()
	r.nextID++
	r.jobs[r.nextID] = &psJob{remaining: bytes, done: done}
	r.reschedule()
}

// Barrier synchronizes n parties: when the last one arrives, all waiting
// callbacks run (after an optional fixed delay). It is reusable across
// rounds: arrivals for round k+1 may come in before round k fully drains
// as long as each party calls Arrive exactly once per round in order,
// which the lock-step training loop guarantees.
type Barrier struct {
	eng     *Engine
	n       int
	delay   float64
	waiting []func()
}

// NewBarrier creates a barrier for n parties with a completion delay
// (e.g. the allreduce transfer time).
func NewBarrier(eng *Engine, n int, delay float64) *Barrier {
	if n <= 0 {
		panic("eventsim: NewBarrier: n must be positive")
	}
	return &Barrier{eng: eng, n: n, delay: delay}
}

// Arrive registers a party; resume runs once all n of the current round
// have arrived, delayed by the barrier's completion delay.
func (b *Barrier) Arrive(resume func()) {
	b.waiting = append(b.waiting, resume)
	if len(b.waiting) >= b.n {
		batch := b.waiting[:b.n]
		b.waiting = append([]func(){}, b.waiting[b.n:]...)
		for _, r := range batch {
			r := r
			b.eng.Schedule(b.delay, r)
		}
	}
}
