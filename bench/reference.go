package main

import (
	"math"
	"time"
)

// The reference kernel is a frozen miniature of the simulated work: a
// small event-list queueing simulation per device with exponential
// draws, periodic epsilon-greedy Q-learning decisions over Q tables
// spread across a few hundred KB, and a wait histogram. It lives here,
// outside the code under test, so no change to the repository moves it.
//
// On a shared host the speed of this kind of code drifts by up to a
// factor of two over minutes, with other tenants' cache and memory load;
// a run cannot escape a slow phase, but the kernel slows with it. The
// time metrics therefore divide each round's time by the kernel's time
// on either side of it (README.md gives the measurements). A pure-ALU
// loop does not track the drift: it slows a few percent while the
// simulators slow tens of percent.
const (
	refDevices      = 1 << 15 // devices per burst: about 35 ms
	refDeviceEvents = 24
	refStates       = 16  // queue-length states per Q table
	refTables       = 512 // Q tables: 512 x 16 states x 3 actions = 192 KB
	refBins         = 1 << 13
	// refNominalNs is the reference speed the time metrics are scaled
	// to: the kernel's ns per event on a quiet reference machine.
	refNominalNs = 40.0
)

type refEvent struct {
	t    float64
	kind int
}

// reference holds the kernel's state, cleared at every burst so that
// every burst does identical work.
type reference struct {
	q    []float64
	hist []uint64
	heap []refEvent
	x    uint64
}

func newReference() *reference {
	return &reference{
		q:    make([]float64, refTables*refStates*3),
		hist: make([]uint64, refBins),
		heap: make([]refEvent, 0, 4),
	}
}

// burst runs the kernel once and returns its wall and CPU time per event
// and a checksum of its result, which every burst must reproduce.
func (r *reference) burst() (wallNs, cpuNs float64, sum uint64) {
	clear(r.q)
	clear(r.hist)
	r.x = 0x9e3779b97f4a7c15
	cpu0, t0 := cpuTime(), time.Now()
	acc := 0.0
	for d := range refDevices {
		acc += r.device(d)
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	sum = math.Float64bits(acc)
	for i, h := range r.hist {
		sum = sum*31 + h*uint64(i+1)
	}
	const events = refDevices * refDeviceEvents
	return float64(wall) / events, float64(cpu) / events, sum
}

func (r *reference) uniform() float64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return (float64(r.x>>11) + 0.5) / (1 << 53)
}

// device simulates one device for refDeviceEvents events: arrivals
// (kind 0), service completions (kind 1) and decision ticks (kind 2).
func (r *reference) device(d int) float64 {
	base := d * 37 % refTables * refStates * 3
	q := r.q[base : base+refStates*3]
	r.heap = r.heap[:0]
	r.push(refEvent{-math.Log(r.uniform()) / 5, 0})
	r.push(refEvent{0.1, 2})
	qlen, busy, s := 0, false, 0
	for range refDeviceEvents {
		e := r.pop()
		switch e.kind {
		case 0:
			qlen++
			r.push(refEvent{e.t - math.Log(r.uniform())/5, 0})
			if !busy {
				busy = true
				r.push(refEvent{e.t - math.Log(r.uniform())/8, 1})
			}
		case 1:
			qlen--
			if qlen > 0 {
				r.push(refEvent{e.t - math.Log(r.uniform())/8, 1})
			} else {
				busy = false
			}
		case 2:
			next := min(qlen, refStates-1)
			a := int(r.x % 3)
			if r.uniform() > 0.1 {
				a = 0
				for j := 1; j < 3; j++ {
					if q[next*3+j] > q[next*3+a] {
						a = j
					}
				}
			}
			best := max(q[next*3], q[next*3+1], q[next*3+2])
			q[s*3+a] += 0.1 * (-float64(qlen) - 0.3*float64(a) + 0.95*best - q[s*3+a])
			s = next
			r.hist[int(e.t*97)%refBins]++
			r.push(refEvent{e.t + 0.1, 2})
		}
	}
	acc := 0.0
	for _, v := range q {
		acc += v
	}
	return acc
}

// push and pop keep r.heap a binary min-heap on event time.
func (r *reference) push(e refEvent) {
	r.heap = append(r.heap, e)
	h := r.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (r *reference) pop() refEvent {
	h := r.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	r.heap = h[:n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].t < h[c].t {
			c++
		}
		if h[i].t <= h[c].t {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return e
}
