// Package shared implements the resources a coupled fleet group
// contends for: a single-occupancy channel (one device's service
// occupies the medium), a bounded gateway queue (one server plus a
// finite wait room, overflow dropped), and a rate-limited power budget
// (a cap on the group's summed settled-state power that vetoes upward
// transitions). Each satisfies
// ctsim.Resource; one instance is attached to every sim of a coupled
// group via ctsim.Config.Resource and arbitrates their service starts
// and power commands on the group's shared event kernel.
//
// Determinism: every method runs synchronously on the shared kernel's
// event loop, wait queues grant in strict FIFO request order, and no
// resource reads a clock or RNG of its own — a coupled group's outcome
// is a pure function of its spec, preserving the repository-wide
// bit-identical -parallel contract. The request order itself is pinned
// by the kernel's (time, seq) FIFO tie-break (see internal/eventq), so
// "first to ask" is well defined even when several devices act at the
// same instant. None of the types is safe for concurrent use, matching
// the kernel they guard.
//
// Reuse: all three types are resettable in place — Reset reproduces
// the freshly constructed state bit-for-bit while keeping queue
// capacity, so pooled coupled shards stay allocation-free after
// warm-up (wait-queue growth allocates only until the queue has seen
// its high-water mark).
package shared

import (
	"fmt"

	"repro/internal/ctsim"
	"repro/internal/queue"
)

// Outageable is the scheduled-outage half of the resource contract:
// the coupled-fleet outage driver toggles the resource down at the
// start of each outage window and up at its end, from events on the
// group's shared kernel (so toggles are deterministic). What "down"
// means is per-resource: a Channel jams (new grants park FIFO until
// the window ends), a Gateway rejects with ctsim.DropOutage, and a
// PowerBudget browns out (its effective cap shrinks). All three
// resources implement it.
type Outageable interface {
	// SetDown enters (true) or leaves (false) an outage window at time
	// now. Leaving may synchronously grant parked waiters, in FIFO
	// order. Toggles must alternate; Reset clears the down state.
	SetDown(down bool, now float64)
}

// Channel is a single-occupancy shared medium: at most one device in
// the group serves at a time (a WLAN cell where a transmission
// occupies the channel). Contenders queue FIFO and are granted as the
// holder releases; nothing is ever dropped and power commands are
// never vetoed.
//
// During an outage window (SetDown — a jam interval) no new grant is
// issued: requests park FIFO even while the medium is idle, an
// in-flight transmission finishes but its release grants nobody, and
// the queue drains in order when the window ends.
type Channel struct {
	busy    bool
	down    bool
	waiters queue.Ring[ctsim.ResourceClient]
}

// NewChannel returns an idle single-occupancy channel.
func NewChannel() *Channel { return &Channel{} }

// Reset returns the channel to the freshly constructed idle state,
// keeping the wait queue's capacity for reuse.
func (c *Channel) Reset() {
	c.busy = false
	c.down = false
	c.waiters.Reset(0)
}

// RequestService grants the channel if idle (and not jammed), else
// queues g FIFO.
func (c *Channel) RequestService(now float64, g ctsim.ResourceClient) ctsim.Verdict {
	if !c.busy && !c.down {
		c.busy = true
		return ctsim.Grant
	}
	c.waiters.Push(g)
	return ctsim.Wait
}

// ReleaseService frees the channel and synchronously grants the head
// waiter, if any. During a jam the channel goes idle without granting;
// SetDown(false) resumes the queue.
func (c *Channel) ReleaseService(now float64, g ctsim.ResourceClient) {
	if c.waiters.Len() > 0 && !c.down {
		c.waiters.Pop().ResourceGranted(now)
		return
	}
	c.busy = false
}

// SetDown implements Outageable: a jam interval. Ending the jam grants
// the head waiter if the medium is idle.
func (c *Channel) SetDown(down bool, now float64) {
	c.down = down
	if !down && !c.busy && c.waiters.Len() > 0 {
		c.busy = true
		c.waiters.Pop().ResourceGranted(now)
	}
}

// CancelWait withdraws a queued g.
func (c *Channel) CancelWait(now float64, g ctsim.ResourceClient) {
	if !c.waiters.Remove(g) {
		panic("shared: Channel.CancelWait for a client that is not waiting")
	}
}

// AllowTransition always admits: the channel constrains the medium,
// not power.
func (c *Channel) AllowTransition(now float64, g ctsim.ResourceClient, deltaPowerW float64) bool {
	return true
}

// Gateway is one server fed by a bounded queue: one device serves at a
// time, up to WaitCap more wait FIFO, and requests beyond that are
// dropped (counted by the requester in Metrics.ResourceDrops). Power
// commands are never vetoed.
//
// During an outage window (SetDown — the gateway is unreachable) every
// request is rejected with ctsim.DropOutage, an in-flight service
// finishes without granting a waiter, and parked waiters resume in
// FIFO order when the window ends.
type Gateway struct {
	waitCap int
	busy    bool
	down    bool
	waiters queue.Ring[ctsim.ResourceClient]
}

// NewGateway returns an idle gateway with the given wait-room bound,
// which must be at least zero.
func NewGateway(waitCap int) *Gateway {
	if waitCap < 0 {
		panic(fmt.Sprintf("shared: NewGateway waitCap %d < 0", waitCap))
	}
	return &Gateway{waitCap: waitCap}
}

// Reset returns the gateway to the freshly constructed idle state,
// keeping the wait queue's capacity for reuse.
func (gw *Gateway) Reset() {
	gw.busy = false
	gw.down = false
	gw.waiters.Reset(0)
}

// RequestService grants while the server is free, queues while the
// wait room has space, and drops otherwise. During an outage window
// every request is rejected as DropOutage.
func (gw *Gateway) RequestService(now float64, g ctsim.ResourceClient) ctsim.Verdict {
	if gw.down {
		return ctsim.DropOutage
	}
	if !gw.busy {
		gw.busy = true
		return ctsim.Grant
	}
	if gw.waiters.Len() < gw.waitCap {
		gw.waiters.Push(g)
		return ctsim.Wait
	}
	return ctsim.Drop
}

// ReleaseService frees the server and synchronously grants the head
// waiter, if any. During an outage the server frees without granting;
// SetDown(false) resumes the queue.
func (gw *Gateway) ReleaseService(now float64, g ctsim.ResourceClient) {
	if gw.waiters.Len() > 0 && !gw.down {
		gw.waiters.Pop().ResourceGranted(now)
		return
	}
	gw.busy = false
}

// SetDown implements Outageable: gateway downtime. Ending the window
// grants the head waiter if the server freed during it.
func (gw *Gateway) SetDown(down bool, now float64) {
	gw.down = down
	if !down && !gw.busy && gw.waiters.Len() > 0 {
		gw.busy = true
		gw.waiters.Pop().ResourceGranted(now)
	}
}

// CancelWait withdraws a queued g.
func (gw *Gateway) CancelWait(now float64, g ctsim.ResourceClient) {
	if !gw.waiters.Remove(g) {
		panic("shared: Gateway.CancelWait for a client that is not waiting")
	}
}

// AllowTransition always admits: the gateway constrains service
// concurrency, not power.
func (gw *Gateway) AllowTransition(now float64, g ctsim.ResourceClient, deltaPowerW float64) bool {
	return true
}

// PowerBudget caps the group's summed settled-state power: a commanded
// transition that would push the running total above the cap is vetoed
// (the device stays put, counted in Metrics.BudgetDenied) while
// downward transitions always pass and return their headroom. Service
// starts are never queued or dropped — the budget constrains power,
// not the medium.
//
// The budget accounts settled-state power only: a latent transition's
// transient draw is not charged, matching the ctsim hook, which
// consults the budget once per command with the settled-power delta.
//
// During an outage window (SetDown — a brownout) the effective cap
// shrinks to BrownoutFrac × cap: devices already drawing above the
// browned-out cap are not evicted, but upward transitions are vetoed
// against the reduced headroom until the window ends.
type PowerBudget struct {
	capW      float64
	usedW     float64
	brownFrac float64 // effective-cap scale while down
	down      bool
}

// NewPowerBudget returns a budget with the given cap in watts and no
// registered draw. Callers register each group member's initial
// settled power via Register before the run starts.
func NewPowerBudget(capW float64) *PowerBudget {
	return &PowerBudget{capW: capW, brownFrac: 1}
}

// Reset reconfigures the budget to a fresh cap with no registered draw
// and no outage in progress. The brownout fraction is configuration,
// not run state, and survives (like the cap it scales).
func (p *PowerBudget) Reset(capW float64) {
	p.capW = capW
	p.usedW = 0
	p.down = false
}

// SetBrownoutFrac sets the cap scale applied during outage windows, in
// (0, 1].
func (p *PowerBudget) SetBrownoutFrac(frac float64) {
	if !(frac > 0 && frac <= 1) {
		panic(fmt.Sprintf("shared: brownout fraction %v outside (0, 1]", frac))
	}
	p.brownFrac = frac
}

// SetDown implements Outageable: a brownout window scales the
// effective cap by the configured fraction.
func (p *PowerBudget) SetDown(down bool, now float64) { p.down = down }

// Register charges a group member's initial settled-state power before
// the run starts. Registration order must be deterministic (the
// coupled shard loop registers lanes in instance order) so the
// floating-point running total is reproducible.
func (p *PowerBudget) Register(initialPowerW float64) {
	p.usedW += initialPowerW
}

// RequestService always grants: the budget does not arbitrate the
// medium.
func (p *PowerBudget) RequestService(now float64, g ctsim.ResourceClient) ctsim.Verdict {
	return ctsim.Grant
}

// ReleaseService is a no-op (every request was granted without
// reserving capacity).
func (p *PowerBudget) ReleaseService(now float64, g ctsim.ResourceClient) {}

// CancelWait never fires (RequestService never answers Wait).
func (p *PowerBudget) CancelWait(now float64, g ctsim.ResourceClient) {
	panic("shared: PowerBudget.CancelWait — budget never queues a waiter")
}

// AllowTransition admits the command iff the resulting total stays
// within the cap, and accounts the delta when it does. Downward
// deltas always pass.
func (p *PowerBudget) AllowTransition(now float64, g ctsim.ResourceClient, deltaPowerW float64) bool {
	capW := p.capW
	if p.down {
		capW *= p.brownFrac
	}
	if deltaPowerW > 0 && p.usedW+deltaPowerW > capW {
		return false
	}
	p.usedW += deltaPowerW
	return true
}
