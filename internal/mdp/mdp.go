// Package mdp builds the exact discrete-time Markov decision process
// corresponding to a slotted power-managed system (internal/slotsim with
// Bernoulli arrivals) and solves it with classical dynamic-programming
// methods: discounted value iteration, policy iteration, and average-cost
// relative value iteration.
//
// The MDP and the simulator are generated from the same device description
// and share slot semantics line for line, so the "optimal policy derived by
// analytical techniques which assume [the] model is completely known" that
// Fig. 1 of the paper compares against is exactly optimal for the simulated
// system, not merely an approximation.
package mdp

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// Outcome is one probabilistic successor of a state-action pair.
type Outcome struct {
	// Next is the successor state index.
	Next int
	// P is the transition probability.
	P float64
}

// Model is a finite MDP with per-state action sets, sparse transitions,
// and expected immediate costs.
type Model struct {
	// N is the number of states.
	N int
	// Actions[s] lists the action labels available in state s. For DPM
	// models the label is the commanded device.StateID; uncontrollable
	// (transition) states have a single pseudo-action.
	Actions [][]int
	// Trans[s][ai] lists the outcomes of taking Actions[s][ai] in s.
	Trans [][][]Outcome
	// Costs[s][ai] is the expected immediate cost of Actions[s][ai].
	Costs [][]float64
	// Energy[s][ai] is the energy component of the cost (joules); nil for
	// generic models. DPM models fill it so constrained optimizers can
	// separate energy from latency.
	Energy [][]float64
	// Perf[s][ai] is the expected post-service backlog (requests); nil
	// for generic models.
	Perf [][]float64
	// Label[s] is a human-readable state description.
	Label []string
}

// Validate checks structural invariants: rows sum to 1, probabilities are
// valid, indices are in range, and every state has at least one action.
func (m *Model) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("mdp: model has %d states", m.N)
	}
	if len(m.Actions) != m.N || len(m.Trans) != m.N || len(m.Costs) != m.N {
		return fmt.Errorf("mdp: ragged model arrays")
	}
	for s := 0; s < m.N; s++ {
		if len(m.Actions[s]) == 0 {
			return fmt.Errorf("mdp: state %d has no actions", s)
		}
		if len(m.Trans[s]) != len(m.Actions[s]) || len(m.Costs[s]) != len(m.Actions[s]) {
			return fmt.Errorf("mdp: state %d has ragged action arrays", s)
		}
		for ai := range m.Actions[s] {
			sum := 0.0
			for _, o := range m.Trans[s][ai] {
				if o.Next < 0 || o.Next >= m.N {
					return fmt.Errorf("mdp: state %d action %d has successor %d out of range", s, ai, o.Next)
				}
				if o.P < 0 || o.P > 1+1e-12 || math.IsNaN(o.P) {
					return fmt.Errorf("mdp: state %d action %d has probability %v", s, ai, o.P)
				}
				sum += o.P
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("mdp: state %d action %d probabilities sum to %v", s, ai, sum)
			}
			if c := m.Costs[s][ai]; math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("mdp: state %d action %d cost %v", s, ai, c)
			}
		}
	}
	return nil
}

// Policy maps each state to an index into its action set.
type Policy []int

// ---------------------------------------------------------------------------
// DPM model builder

// DPMConfig describes the power-managed system to model. It must mirror a
// slotsim.Config with workload.Bernoulli arrivals.
type DPMConfig struct {
	// Device is the slotted PSM.
	Device *device.Slotted
	// ArrivalP is the per-slot Bernoulli arrival probability.
	ArrivalP float64
	// QueueCap bounds the queue; the model requires a finite bound >= 1.
	QueueCap int
	// LatencyWeight converts post-service backlog into cost units.
	LatencyWeight float64
}

// DPM is the constructed model plus the index maps needed to translate
// between simulator observations and MDP states.
type DPM struct {
	*Model
	Cfg DPMConfig

	// settledBase[i] is the state index of (device state i, queue 0).
	settledBase []int
	// transBase[(i,j)] is the state index of (transition i->j, k=1, queue
	// 0); -1 when the transition is forbidden or instantaneous.
	transBase [][]int
}

// BuildDPM enumerates the exact state space:
//
//	settled(i, q)          for each device state i, q in 0..cap
//	switching(i->j, k, q)  for each allowed transition with latency L >= 1,
//	                       k in 1..L (slots remaining), q in 0..cap
//
// Actions in settled states are the allowed target states (staying
// included); switching states have the single pseudo-action -1 ("wait").
//
// The build runs in two passes. The structure pass lays out the states,
// labels, actions, each outcome's successor and the energy costs, none
// of which depends on the arrival probability; the rate pass (setRates)
// fills in everything that does. SetArrivalP reruns only the rate pass.
func BuildDPM(cfg DPMConfig) (*DPM, error) {
	dev := cfg.Device
	if dev == nil {
		return nil, fmt.Errorf("mdp: config needs a device")
	}
	if cfg.ArrivalP < 0 || cfg.ArrivalP > 1 || math.IsNaN(cfg.ArrivalP) {
		return nil, fmt.Errorf("mdp: arrival probability %v out of [0,1]", cfg.ArrivalP)
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("mdp: queue capacity %d must be >= 1 (the model needs a finite queue)", cfg.QueueCap)
	}
	if cfg.LatencyWeight < 0 || math.IsNaN(cfg.LatencyWeight) {
		return nil, fmt.Errorf("mdp: latency weight %v must be >= 0", cfg.LatencyWeight)
	}

	nDev := dev.PSM.NumStates()
	qn := cfg.QueueCap + 1 // queue occupancies 0..cap

	d := &DPM{Cfg: cfg}
	d.settledBase = make([]int, nDev)
	d.transBase = make([][]int, nDev)

	// Enumerate states. Every block of states starts at a multiple of qn
	// and runs through the queue levels in order, so a state's queue
	// level is its index mod qn (setRates relies on this).
	n := 0
	for i := 0; i < nDev; i++ {
		d.settledBase[i] = n
		n += qn
	}
	for i := 0; i < nDev; i++ {
		d.transBase[i] = make([]int, nDev)
		for j := 0; j < nDev; j++ {
			d.transBase[i][j] = -1
			if i == j {
				continue
			}
			l := dev.TransSlots[i][j]
			if l >= 1 {
				d.transBase[i][j] = n
				n += l * qn // k = 1..L, each with qn queue levels
			}
		}
	}

	m := &Model{
		N:       n,
		Actions: make([][]int, n),
		Trans:   make([][][]Outcome, n),
		Costs:   make([][]float64, n),
		Energy:  make([][]float64, n),
		Perf:    make([][]float64, n),
		Label:   make([]string, n),
	}
	d.Model = m

	var buf [2]arrival
	arr := arrivals(cfg.ArrivalP, &buf)
	cap := cfg.QueueCap

	// successors lists, for a slot spent with service flag `serves` in
	// post-decision queue q, one outcome per arrival count in arr: the
	// state at the resulting queue level in the block starting at base.
	successors := func(q int, serves bool, serveN int, base int) []Outcome {
		outs := make([]Outcome, len(arr))
		for k, a := range arr {
			q1 := q + a.n
			if q1 > cap {
				q1 = cap // overflow lost
			}
			if serves {
				q1 -= serveN
				if q1 < 0 {
					q1 = 0
				}
			}
			outs[k].Next = base + q1
		}
		return outs
	}

	// Settled states.
	for i := 0; i < nDev; i++ {
		for q := 0; q <= cap; q++ {
			s := d.settledBase[i] + q
			m.Label[s] = fmt.Sprintf("%s q=%d", dev.PSM.States[i].Name, q)
			for j := 0; j < nDev; j++ {
				if i != j && dev.TransSlots[i][j] < 0 {
					continue // forbidden
				}
				var outs []Outcome
				var energy float64
				switch {
				case i == j:
					// Stay: ordinary slot in state i.
					energy = dev.StateEnergy[i]
					outs = successors(q, dev.PSM.States[i].CanService, dev.ServePerSlot, d.settledBase[i])
				case dev.TransSlots[i][j] == 0:
					// Instant switch: slot spent in j, full switch energy now.
					energy = dev.TransEnergy[i][j] + dev.StateEnergy[j]
					outs = successors(q, dev.PSM.States[j].CanService, dev.ServePerSlot, d.settledBase[j])
				default:
					// First slot of an L-slot switch: no service.
					l := dev.TransSlots[i][j]
					energy = dev.TransEnergy[i][j] / float64(l)
					next := d.settledBase[j]
					if l > 1 {
						next = d.transIndex(i, j, l-1, 0)
					}
					outs = successors(q, false, 0, next)
				}
				m.Actions[s] = append(m.Actions[s], j)
				m.Trans[s] = append(m.Trans[s], outs)
				m.Energy[s] = append(m.Energy[s], energy)
			}
		}
	}

	// Switching states.
	for i := 0; i < nDev; i++ {
		for j := 0; j < nDev; j++ {
			if d.transBase[i][j] < 0 {
				continue
			}
			l := dev.TransSlots[i][j]
			perSlot := dev.TransEnergy[i][j] / float64(l)
			for k := 1; k <= l; k++ {
				for q := 0; q <= cap; q++ {
					s := d.transIndex(i, j, k, q)
					m.Label[s] = fmt.Sprintf("%s->%s k=%d q=%d", dev.PSM.States[i].Name, dev.PSM.States[j].Name, k, q)
					next := d.settledBase[j]
					if k > 1 {
						next = d.transIndex(i, j, k-1, 0)
					}
					outs := successors(q, false, 0, next)
					m.Actions[s] = []int{-1}
					m.Trans[s] = [][]Outcome{outs}
					m.Energy[s] = []float64{perSlot}
				}
			}
		}
	}
	for s := range m.Actions {
		m.Costs[s] = make([]float64, len(m.Actions[s]))
		m.Perf[s] = make([]float64, len(m.Actions[s]))
	}

	d.setRates()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mdp: built model invalid: %w", err)
	}
	return d, nil
}

// arrival is one per-slot arrival count and its probability.
type arrival struct {
	n int
	p float64
}

// arrivals lists the arrival counts with nonzero probability at per-slot
// Bernoulli rate pA, in count order, using buf as backing. Every
// state-action pair of a model has one outcome per entry, in this order.
// At pA = 0 or 1 one count has probability zero and is left out.
func arrivals(pA float64, buf *[2]arrival) []arrival {
	out := buf[:0]
	if p := 1 - pA; p != 0 {
		out = append(out, arrival{0, p})
	}
	if pA != 0 {
		out = append(out, arrival{1, pA})
	}
	return out
}

// setRates is the rate pass: it fills every value that depends on
// Cfg.ArrivalP — each outcome's P, then Perf (the expected post-service
// backlog, summed in outcome order), then Costs — leaving the structure
// alone. The outcome lists must have been laid out at a rate with the
// same arrival counts (see arrivals).
func (d *DPM) setRates() {
	var buf [2]arrival
	arr := arrivals(d.Cfg.ArrivalP, &buf)
	qn := d.Cfg.QueueCap + 1
	w := d.Cfg.LatencyWeight
	for s := 0; s < d.N; s++ {
		for ai, outs := range d.Trans[s] {
			perf := 0.0
			for k, a := range arr {
				outs[k].P = a.p
				perf += a.p * float64(outs[k].Next%qn)
			}
			d.Perf[s][ai] = perf
			d.Costs[s][ai] = d.Energy[s][ai] + w*perf
		}
	}
}

// SetArrivalP refills the model in place at arrival probability p, with
// the same values BuildDPM would produce at p, and validates it. Only the
// rate-dependent values change: transition probabilities, Perf, Costs
// and Cfg.ArrivalP. Both the old and the new p must lie strictly inside
// (0, 1), because at 0 or 1 an arrival count drops out and the model's
// structure differs. If validation fails the model holds the new values.
func (d *DPM) SetArrivalP(p float64) error {
	if !(p > 0 && p < 1) {
		return fmt.Errorf("mdp: refill arrival probability %v outside (0,1)", p)
	}
	if old := d.Cfg.ArrivalP; !(old > 0 && old < 1) {
		return fmt.Errorf("mdp: model built at arrival probability %v cannot be refilled", old)
	}
	d.Cfg.ArrivalP = p
	d.setRates()
	if err := d.Validate(); err != nil {
		return fmt.Errorf("mdp: refilled model invalid: %w", err)
	}
	return nil
}

// transIndex returns the state index of (i->j, k slots remaining, queue q).
func (d *DPM) transIndex(i, j, k, q int) int {
	qn := d.Cfg.QueueCap + 1
	return d.transBase[i][j] + (k-1)*qn + q
}

// SettledState returns the model index of (device state i, queue q).
func (d *DPM) SettledState(i device.StateID, q int) (int, error) {
	if int(i) < 0 || int(i) >= len(d.settledBase) {
		return 0, fmt.Errorf("mdp: device state %d out of range", i)
	}
	if q < 0 || q > d.Cfg.QueueCap {
		return 0, fmt.Errorf("mdp: queue length %d out of range [0,%d]", q, d.Cfg.QueueCap)
	}
	return d.settledBase[int(i)] + q, nil
}

// ActionTarget resolves a policy's action in a settled state to the
// commanded device state.
func (d *DPM) ActionTarget(pol Policy, i device.StateID, q int) (device.StateID, error) {
	s, err := d.SettledState(i, q)
	if err != nil {
		return 0, err
	}
	if pol[s] < 0 || pol[s] >= len(d.Actions[s]) {
		return 0, fmt.Errorf("mdp: policy action index %d out of range in state %d", pol[s], s)
	}
	lbl := d.Actions[s][pol[s]]
	if lbl < 0 {
		return 0, fmt.Errorf("mdp: settled state %d has pseudo-action", s)
	}
	return device.StateID(lbl), nil
}
