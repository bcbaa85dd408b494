package shared

import (
	"testing"

	"repro/internal/ctsim"
)

// Outage edge cases for the shared resources: zero-duration windows
// (down and up toggles at the same instant), toggles racing a pending
// grant (a release landing inside a window, and a window opening with
// waiters already parked), and the brownout fraction's boundary values
// 0 and 1. Every scenario is a plain synchronous call sequence — the
// resources own no clock — so the expected outcomes are exact, which
// is what pins the coupled fleets' bit-identical -parallel contract at
// this layer.

// TestChannelOutageParksIdleRequests: during a jam the medium parks
// new requests FIFO even while idle, a release inside the window
// grants nobody, and the window's end drains exactly one waiter into
// the idle medium (single occupancy) with later waiters granted by
// subsequent releases in request order.
func TestChannelOutageParksIdleRequests(t *testing.T) {
	ch := NewChannel()
	cs := clients(3)
	ch.RequestService(0, cs[0])
	ch.SetDown(true, 1)
	// The holder finishes mid-window: idle, but nobody is granted.
	ch.ReleaseService(2, cs[0])
	// New requests park despite the idle medium.
	for _, c := range cs[1:] {
		if got := ch.RequestService(3, c); got != ctsim.Wait {
			t.Fatalf("request during jam: got %v, want Wait", got)
		}
	}
	if len(cs[1].grants)+len(cs[2].grants) != 0 {
		t.Fatal("jammed channel granted a waiter")
	}
	ch.SetDown(false, 4)
	if len(cs[1].grants) != 1 || cs[1].grants[0] != 4 {
		t.Fatalf("head waiter not granted at window end: %v", cs[1].grants)
	}
	if len(cs[2].grants) != 0 {
		t.Fatal("single-occupancy channel granted two waiters at once")
	}
	ch.ReleaseService(5, cs[1])
	if len(cs[2].grants) != 1 || cs[2].grants[0] != 5 {
		t.Fatalf("second waiter not granted on release: %v", cs[2].grants)
	}
}

// TestChannelZeroDurationOutage: a window whose down and up toggles
// land at the same instant. With the medium busy it is a no-op; with
// waiters parked and the medium idle, the up toggle grants the head
// waiter at the window's (single) instant.
func TestChannelZeroDurationOutage(t *testing.T) {
	ch := NewChannel()
	cs := clients(2)
	ch.RequestService(0, cs[0])
	ch.SetDown(true, 1)
	ch.SetDown(false, 1)
	if len(cs[0].grants) != 0 {
		t.Fatal("zero-duration window disturbed the busy holder")
	}
	if got := ch.RequestService(2, cs[1]); got != ctsim.Wait {
		t.Fatalf("post-blink busy request: got %v, want Wait", got)
	}

	// Idle medium with a parked waiter: the blink's up edge grants.
	ch2 := NewChannel()
	ch2.SetDown(true, 0)
	ch2.RequestService(0, cs[1])
	cs[1].grants = nil
	ch2.SetDown(false, 0)
	if len(cs[1].grants) != 1 || cs[1].grants[0] != 0 {
		t.Fatalf("blink's up edge did not grant the parked waiter: %v", cs[1].grants)
	}
}

// TestChannelToggleRacesPendingGrant: a release and a down toggle at
// the same simulation instant are ordered by the kernel's (time, seq)
// tie-break, and each order has its own exact outcome — release first
// hands the medium to the head waiter before the jam, toggle first
// strands the release inside the window and the waiter parks until the
// window ends. Both are deterministic; neither loses the waiter.
func TestChannelToggleRacesPendingGrant(t *testing.T) {
	// Release processed before the down toggle.
	ch := NewChannel()
	cs := clients(2)
	ch.RequestService(0, cs[0])
	ch.RequestService(0, cs[1])
	ch.ReleaseService(5, cs[0])
	ch.SetDown(true, 5)
	if len(cs[1].grants) != 1 || cs[1].grants[0] != 5 {
		t.Fatalf("release-first order lost the grant: %v", cs[1].grants)
	}

	// Down toggle processed before the release.
	ch2 := NewChannel()
	ds := clients(2)
	ch2.RequestService(0, ds[0])
	ch2.RequestService(0, ds[1])
	ch2.SetDown(true, 5)
	ch2.ReleaseService(5, ds[0])
	if len(ds[1].grants) != 0 {
		t.Fatalf("toggle-first order granted inside the window: %v", ds[1].grants)
	}
	ch2.SetDown(false, 7)
	if len(ds[1].grants) != 1 || ds[1].grants[0] != 7 {
		t.Fatalf("waiter stranded after the window: %v", ds[1].grants)
	}
}

// TestGatewayOutageRejectsAndResumes: a down gateway rejects every
// request with DropOutage (even with a free server and wait room), a
// release inside the window frees the server without granting, and the
// window's end grants the head waiter.
func TestGatewayOutageRejectsAndResumes(t *testing.T) {
	gw := NewGateway(4)
	cs := clients(5)
	gw.RequestService(0, cs[0])
	gw.RequestService(0, cs[1]) // Wait
	gw.RequestService(0, cs[2]) // Wait
	gw.SetDown(true, 1)
	if got := gw.RequestService(2, cs[3]); got != ctsim.DropOutage {
		t.Fatalf("request during outage: got %v, want DropOutage", got)
	}
	gw.ReleaseService(3, cs[0])
	if len(cs[1].grants)+len(cs[2].grants) != 0 {
		t.Fatal("down gateway granted a waiter on release")
	}
	gw.SetDown(false, 4)
	if len(cs[1].grants) != 1 || cs[1].grants[0] != 4 || len(cs[2].grants) != 0 {
		t.Fatalf("window end did not grant the head waiter alone: %v %v",
			cs[1].grants, cs[2].grants)
	}
	// The server is busy again: the next request waits, not grants.
	if got := gw.RequestService(5, cs[4]); got != ctsim.Wait {
		t.Fatalf("post-window request: got %v, want Wait", got)
	}
}

// TestGatewayZeroDurationOutage: a blink with no release inside it
// changes nothing — parked waiters stay parked (no server freed), and
// only a request landing exactly between the two toggles sees
// DropOutage.
func TestGatewayZeroDurationOutage(t *testing.T) {
	gw := NewGateway(2)
	cs := clients(3)
	gw.RequestService(0, cs[0])
	gw.RequestService(0, cs[1]) // Wait
	gw.SetDown(true, 1)
	if got := gw.RequestService(1, cs[2]); got != ctsim.DropOutage {
		t.Fatalf("mid-blink request: got %v, want DropOutage", got)
	}
	gw.SetDown(false, 1)
	if len(cs[1].grants) != 0 {
		t.Fatal("blink granted a waiter with no freed server")
	}
	gw.ReleaseService(2, cs[0])
	if len(cs[1].grants) != 1 || cs[1].grants[0] != 2 {
		t.Fatalf("waiter lost across the blink: %v", cs[1].grants)
	}
}

// TestPowerBudgetBrownoutFractionOne: frac = 1 is the boundary no-op —
// an outage window leaves the effective cap unchanged, so admissions
// during the window match admissions outside it exactly.
func TestPowerBudgetBrownoutFractionOne(t *testing.T) {
	p := NewPowerBudget(10)
	p.SetBrownoutFrac(1)
	p.Register(8)
	p.SetDown(true, 0)
	if !p.AllowTransition(1, nil, 2) {
		t.Fatal("frac=1 brownout shrank the cap")
	}
	if p.AllowTransition(2, nil, 0.5) {
		t.Fatal("frac=1 brownout admitted an overrun")
	}
	p.SetDown(false, 3)
	if p.usedW != 10 {
		t.Fatalf("usedW = %v, want 10", p.usedW)
	}
}

// TestPowerBudgetBrownoutFractionZeroPanics: frac = 0 (a blackout
// masquerading as a brownout) is outside the documented (0, 1] domain
// and must be rejected at configuration time, not silently veto every
// upward transition forever.
func TestPowerBudgetBrownoutFractionZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetBrownoutFrac(0) did not panic")
		}
	}()
	NewPowerBudget(10).SetBrownoutFrac(0)
}

// TestPowerBudgetBrownoutWindow: during a window the effective cap is
// frac × cap — a draw already above it is not evicted, upward
// transitions are vetoed against the reduced headroom (boundary
// admitted exactly), downward transitions always pass, and the full
// cap returns the moment the window ends.
func TestPowerBudgetBrownoutWindow(t *testing.T) {
	p := NewPowerBudget(10)
	p.SetBrownoutFrac(0.5)
	p.Register(6) // above the browned-out cap of 5
	p.SetDown(true, 0)
	if p.usedW != 6 {
		t.Fatalf("brownout evicted standing draw: usedW = %v", p.usedW)
	}
	if p.AllowTransition(1, nil, 0.5) {
		t.Fatal("upward transition admitted above the browned-out cap")
	}
	if !p.AllowTransition(2, nil, -2) {
		t.Fatal("downward transition vetoed during brownout")
	}
	// 4 W drawn, browned-out cap 5: exactly filling it is admitted.
	if !p.AllowTransition(3, nil, 1) {
		t.Fatal("transition to exactly the browned-out cap vetoed")
	}
	if p.AllowTransition(4, nil, 0.1) {
		t.Fatal("overrun of the browned-out cap admitted")
	}
	p.SetDown(false, 5)
	if !p.AllowTransition(6, nil, 5) {
		t.Fatal("full cap not restored after the window")
	}
	if p.usedW != 10 {
		t.Fatalf("usedW = %v, want 10", p.usedW)
	}
}
