package shared

import (
	"testing"

	"repro/internal/ctsim"
)

// fakeClient records the grant times it receives.
type fakeClient struct {
	id     int
	grants []float64
}

func (f *fakeClient) ResourceGranted(now float64) { f.grants = append(f.grants, now) }

func clients(n int) []*fakeClient {
	cs := make([]*fakeClient, n)
	for i := range cs {
		cs[i] = &fakeClient{id: i}
	}
	return cs
}

func TestChannelGrantsFIFO(t *testing.T) {
	ch := NewChannel()
	cs := clients(4)
	if got := ch.RequestService(0, cs[0]); got != ctsim.Grant {
		t.Fatalf("first request: got %v, want Grant", got)
	}
	for _, c := range cs[1:] {
		if got := ch.RequestService(1, c); got != ctsim.Wait {
			t.Fatalf("busy request: got %v, want Wait", got)
		}
	}
	// Releases must hand the channel to waiters in request order.
	for i := 1; i < 4; i++ {
		ch.ReleaseService(float64(i+1), cs[i-1])
		if len(cs[i].grants) != 1 || cs[i].grants[0] != float64(i+1) {
			t.Fatalf("waiter %d grants = %v, want [%d]", i, cs[i].grants, i+1)
		}
		for _, later := range cs[i+1:] {
			if len(later.grants) != 0 {
				t.Fatalf("waiter %d granted out of order", later.id)
			}
		}
	}
	ch.ReleaseService(9, cs[3])
	if got := ch.RequestService(10, cs[0]); got != ctsim.Grant {
		t.Fatalf("post-drain request: got %v, want Grant", got)
	}
}

func TestChannelCancelPreservesOrder(t *testing.T) {
	ch := NewChannel()
	cs := clients(4)
	ch.RequestService(0, cs[0])
	for _, c := range cs[1:] {
		ch.RequestService(0, c)
	}
	ch.CancelWait(1, cs[2])
	ch.ReleaseService(2, cs[0])
	ch.ReleaseService(3, cs[1])
	if len(cs[1].grants) != 1 || len(cs[3].grants) != 1 {
		t.Fatalf("grants after cancel: c1=%v c3=%v, want one each", cs[1].grants, cs[3].grants)
	}
	if len(cs[2].grants) != 0 {
		t.Fatalf("canceled waiter was granted: %v", cs[2].grants)
	}
}

func TestChannelCancelUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CancelWait for a non-waiter did not panic")
		}
	}()
	NewChannel().CancelWait(0, &fakeClient{})
}

func TestChannelResetIsFresh(t *testing.T) {
	ch := NewChannel()
	cs := clients(3)
	ch.RequestService(0, cs[0])
	ch.RequestService(0, cs[1])
	ch.RequestService(0, cs[2])
	ch.Reset()
	if got := ch.RequestService(1, cs[2]); got != ctsim.Grant {
		t.Fatalf("post-reset request: got %v, want Grant", got)
	}
	ch.ReleaseService(2, cs[2])
	if len(cs[0].grants)+len(cs[1].grants) != 0 {
		t.Fatal("reset did not clear the wait queue")
	}
}

func TestGatewayGrantWaitDrop(t *testing.T) {
	gw := NewGateway(2)
	cs := clients(5)
	if got := gw.RequestService(0, cs[0]); got != ctsim.Grant {
		t.Fatalf("idle server: got %v, want Grant", got)
	}
	for i := 1; i < 3; i++ {
		if got := gw.RequestService(0, cs[i]); got != ctsim.Wait {
			t.Fatalf("wait slot %d: got %v, want Wait", i, got)
		}
	}
	for i := 3; i < 5; i++ {
		if got := gw.RequestService(0, cs[i]); got != ctsim.Drop {
			t.Fatalf("overflow %d: got %v, want Drop", i, got)
		}
	}
	gw.ReleaseService(1, cs[0])
	if len(cs[1].grants) != 1 {
		t.Fatalf("head waiter not granted on release: %v", cs[1].grants)
	}
	// The freed server went to the waiter, so a new request still waits.
	if got := gw.RequestService(2, cs[3]); got != ctsim.Wait {
		t.Fatalf("request after handoff: got %v, want Wait", got)
	}
}

func TestGatewayZeroWaitCapDropsImmediately(t *testing.T) {
	gw := NewGateway(0)
	cs := clients(2)
	gw.RequestService(0, cs[0])
	if got := gw.RequestService(0, cs[1]); got != ctsim.Drop {
		t.Fatalf("waitCap=0 overflow: got %v, want Drop", got)
	}
}

func TestGatewayResetIsFresh(t *testing.T) {
	gw := NewGateway(1)
	cs := clients(3)
	gw.RequestService(0, cs[0])
	gw.RequestService(0, cs[1])
	gw.Reset()
	if got := gw.RequestService(1, cs[2]); got != ctsim.Grant {
		t.Fatalf("post-reset request: got %v, want Grant", got)
	}
	gw.ReleaseService(2, cs[2])
	if len(cs[1].grants) != 0 {
		t.Fatal("reset did not clear the wait queue")
	}
}

func TestPowerBudgetVetoesOverrun(t *testing.T) {
	p := NewPowerBudget(5)
	p.Register(2)
	p.Register(1)
	if p.usedW != 3 {
		t.Fatalf("usedW = %v, want 3", p.usedW)
	}
	if !p.AllowTransition(0, nil, 2) {
		t.Fatal("transition to exactly the cap was vetoed")
	}
	if p.AllowTransition(1, nil, 0.5) {
		t.Fatal("overrun was admitted")
	}
	if p.usedW != 5 {
		t.Fatalf("vetoed transition changed usedW: %v", p.usedW)
	}
	// Downward transitions always pass and return headroom.
	if !p.AllowTransition(2, nil, -3) {
		t.Fatal("downward transition was vetoed")
	}
	if !p.AllowTransition(3, nil, 2.5) {
		t.Fatal("transition within restored headroom was vetoed")
	}
}

func TestPowerBudgetServiceHooksAreTransparent(t *testing.T) {
	p := NewPowerBudget(1)
	c := &fakeClient{}
	if got := p.RequestService(0, c); got != ctsim.Grant {
		t.Fatalf("RequestService: got %v, want Grant", got)
	}
	p.ReleaseService(1, c)
	if len(c.grants) != 0 {
		t.Fatal("budget granted a deferred service")
	}
}

func TestPowerBudgetResetReconfigures(t *testing.T) {
	p := NewPowerBudget(5)
	p.Register(4)
	p.Reset(2)
	if p.capW != 2 || p.usedW != 0 {
		t.Fatalf("after Reset(2): cap=%v used=%v", p.capW, p.usedW)
	}
}

func TestFIFOReuseDoesNotGrow(t *testing.T) {
	ch := NewChannel()
	cs := clients(8)
	warm := func() {
		ch.RequestService(0, cs[0])
		for _, c := range cs[1:] {
			ch.RequestService(0, c)
		}
		for _, c := range cs {
			ch.ReleaseService(1, c)
			c.grants = c.grants[:0]
		}
		ch.Reset()
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("steady-state channel cycle allocates %.1f/op, want 0", allocs)
	}
}
