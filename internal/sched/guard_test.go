package sched

import (
	"testing"

	"repro/internal/battery"
	"repro/internal/mdp"
)

// guardCtx builds a context in which the policy would switch away from the
// currently active big cell.
func guardCtx(now float64, h Health) Context {
	return Context{
		Now: now, DT: 0.25,
		State:     mdp.StateVec{Battery: battery.SelectBig},
		CanBig:    true,
		CanLittle: true,
		Health:    h,
	}
}

// TestGuardFallback drives the guard through each fault mode's health
// signature and checks the conservative fallback: hold the active battery,
// disallow the TEC, and record the degradation event.
func TestGuardFallback(t *testing.T) {
	cases := []struct {
		name     string
		health   Health
		wantMode string // "" = stay healthy
	}{
		{"healthy", Health{}, ""},
		{"fresh readings, few unacked", Health{TempStaleS: 5, SwitchUnacked: 3}, ""},
		{"stale temp", Health{TempStaleS: 45}, DegradeStaleSensors},
		{"stale soc", Health{SoCStaleS: 30}, DegradeStaleSensors},
		{"stuck switch", Health{SwitchUnacked: 8, LastSwitchAckAgeS: 12}, DegradeStuckSwitch},
		{"stuck switch wins over stale temp", Health{TempStaleS: 60, SwitchUnacked: 20}, DegradeStuckSwitch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGuard(GuardConfig{})
			want := Decision{Battery: battery.SelectLittle} // policy asks to flip
			got := g.Review(guardCtx(10, c.health), want)

			degraded, mode := g.Degraded()
			if degraded != (c.wantMode != "") || mode != c.wantMode {
				t.Fatalf("mode = (%v, %q), want %q", degraded, mode, c.wantMode)
			}
			if c.wantMode == "" {
				if got != want {
					t.Errorf("healthy guard overrode decision: %+v", got)
				}
				if !g.TECAllowed() {
					t.Error("healthy guard disallowed TEC")
				}
				if len(g.Events()) != 0 {
					t.Errorf("healthy guard recorded events: %v", g.Events())
				}
				return
			}
			if got.Battery != battery.SelectBig {
				t.Errorf("degraded guard let the flip through: %+v", got)
			}
			if g.TECAllowed() {
				t.Error("degraded guard allowed TEC")
			}
			evs := g.Events()
			if len(evs) != 1 || evs[0].Mode != c.wantMode || evs[0].Recovered {
				t.Errorf("events = %+v, want one entry into %q", evs, c.wantMode)
			}
		})
	}
}

// TestGuardRecovery enters a degraded mode, then feeds healthy readings and
// expects the guard to hand control back and log the recovery.
func TestGuardRecovery(t *testing.T) {
	g := NewGuard(GuardConfig{MaxSensorStaleS: 10})
	want := Decision{Battery: battery.SelectLittle}

	if got := g.Review(guardCtx(0, Health{TempStaleS: 30}), want); got.Battery != battery.SelectBig {
		t.Fatalf("guard did not degrade: %+v", got)
	}
	g.Review(guardCtx(1, Health{TempStaleS: 31}), want)

	if got := g.Review(guardCtx(2, Health{}), want); got != want {
		t.Fatalf("recovered guard still overriding: %+v", got)
	}
	if ok := g.TECAllowed(); !ok {
		t.Error("recovered guard still disallows TEC")
	}
	evs := g.Events()
	if len(evs) != 2 || !evs[1].Recovered {
		t.Fatalf("events = %+v, want entry + recovery", evs)
	}
	if g.DegradedTimeS() <= 0 {
		t.Error("no degraded time accumulated")
	}
}

// TestGuardModeTransition checks that moving between two degradation modes
// logs a recovery from the first and an entry into the second.
func TestGuardModeTransition(t *testing.T) {
	g := NewGuard(GuardConfig{})
	want := Decision{Battery: battery.SelectLittle}
	g.Review(guardCtx(0, Health{TempStaleS: 60}), want)
	g.Review(guardCtx(1, Health{SwitchUnacked: 50}), want)
	evs := g.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %+v, want 3", evs)
	}
	if evs[0].Mode != DegradeStaleSensors || evs[1].Mode != DegradeStaleSensors || !evs[1].Recovered ||
		evs[2].Mode != DegradeStuckSwitch || evs[2].Recovered {
		t.Fatalf("unexpected transition log: %+v", evs)
	}
}

// TestGuardTripLatchesInvariantMode: Trip enters the invariant mode
// immediately, healthy inputs never clear it, and re-tripping is a no-op.
func TestGuardTripLatchesInvariantMode(t *testing.T) {
	g := NewGuard(GuardConfig{})
	want := Decision{Battery: battery.SelectLittle}
	if got := g.Review(guardCtx(10, Health{}), want); got != want {
		t.Fatalf("healthy guard overrode decision: %+v", got)
	}

	g.Trip(100, "big SoC rose 0.5 -> 0.53 during discharge")
	if degraded, mode := g.Degraded(); !degraded || mode != DegradeInvariant {
		t.Fatalf("after Trip: mode = %q, want %q", mode, DegradeInvariant)
	}
	if g.TECAllowed() {
		t.Error("tripped guard allowed the TEC")
	}

	// Healthy inputs forever after: the latch must hold.
	for now := 110.0; now <= 150; now += 10 {
		got := g.Review(guardCtx(now, Health{}), want)
		if got.Battery != battery.SelectBig {
			t.Fatalf("t=%.0f tripped guard let a flip through: %+v", now, got)
		}
	}
	if degraded, mode := g.Degraded(); !degraded || mode != DegradeInvariant {
		t.Fatalf("latch cleared by healthy inputs: mode %q", mode)
	}
	if g.DegradedTimeS() <= 0 {
		t.Error("no degraded time accumulated while tripped")
	}

	evs := g.Events()
	if len(evs) != 1 || evs[0].Mode != DegradeInvariant || evs[0].Recovered || evs[0].At != 100 {
		t.Fatalf("transition log = %+v, want one invariant entry at t=100", evs)
	}
	g.Trip(120, "second trip")
	if got := g.Events(); len(got) != 1 {
		t.Fatalf("re-trip recorded new events: %+v", got)
	}
}

// TestGuardTripSupersedesActiveMode: tripping while already degraded closes
// the health-driven mode with a recovery event and opens the invariant one.
func TestGuardTripSupersedesActiveMode(t *testing.T) {
	g := NewGuard(GuardConfig{})
	want := Decision{Battery: battery.SelectLittle}
	g.Review(guardCtx(10, Health{SwitchUnacked: 50}), want)
	if _, mode := g.Degraded(); mode != DegradeStuckSwitch {
		t.Fatalf("setup: mode %q, want stuck-switch", mode)
	}

	g.Trip(20, "negative well")
	evs := g.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %+v, want entry+recovery+entry", evs)
	}
	if !evs[1].Recovered || evs[1].Mode != DegradeStuckSwitch {
		t.Errorf("stuck-switch mode not closed on trip: %+v", evs[1])
	}
	if evs[2].Mode != DegradeInvariant || evs[2].Recovered {
		t.Errorf("no invariant entry after trip: %+v", evs[2])
	}
	// Even with the switch acking again, the invariant mode holds.
	g.Review(guardCtx(30, Health{}), want)
	if _, mode := g.Degraded(); mode != DegradeInvariant {
		t.Errorf("mode %q after healthy review, want invariant", mode)
	}
}

// TestGuardExhaustive checks the guard over the whole finite space it
// acts on: every MDP state, both decisions a policy can make, and every
// health class — sensor ages fresh, at the limit and past it, the switch
// acknowledged, one unacked flip short of stuck and stuck, with and
// without an invariant trip. Whatever the state, the guard passes the
// policy's decision only when healthy and otherwise holds the battery
// that served the previous step, allows the TEC only when healthy, and
// ranks its modes invariant > stuck switch > stale sensors.
func TestGuardExhaustive(t *testing.T) {
	cfg := DefaultGuardConfig()
	ages := []float64{0, cfg.MaxSensorStaleS, cfg.MaxSensorStaleS + 1}
	unacked := []int{0, cfg.MaxSwitchUnacked - 1, cfg.MaxSwitchUnacked}
	var healths []Health
	for _, temp := range ages {
		for _, soc := range ages {
			for _, n := range unacked {
				healths = append(healths, Health{TempStaleS: temp, SoCStaleS: soc, SwitchUnacked: n})
			}
		}
	}
	for s := 0; s < mdp.NumStates; s++ {
		vec, err := mdp.Decode(mdp.State(s))
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range []battery.Selection{battery.SelectBig, battery.SelectLittle} {
			for _, h := range healths {
				for _, tripped := range []bool{false, true} {
					want := ""
					switch {
					case tripped:
						want = DegradeInvariant
					case h.SwitchUnacked >= cfg.MaxSwitchUnacked:
						want = DegradeStuckSwitch
					case h.TempStaleS > cfg.MaxSensorStaleS || h.SoCStaleS > cfg.MaxSensorStaleS:
						want = DegradeStaleSensors
					}
					g := NewGuard(cfg)
					if tripped {
						g.Trip(0, "exhaustive")
					}
					ctx := Context{Now: 1, DT: 0.25, State: vec, CanBig: true, CanLittle: true, Health: h}
					dec := Decision{Battery: sel}
					got := g.Review(ctx, dec)
					healthy := want == ""
					if _, mode := g.Degraded(); mode != want {
						t.Fatalf("state %d %+v tripped=%v: mode %q, want %q", s, h, tripped, mode, want)
					}
					if healthy && got != dec || !healthy && got != (Decision{Battery: vec.Battery}) {
						t.Fatalf("state %d %+v tripped=%v: Review(%v) = %v", s, h, tripped, sel, got.Battery)
					}
					if g.TECAllowed() != healthy {
						t.Fatalf("state %d %+v tripped=%v: TECAllowed = %v, want %v", s, h, tripped, !healthy, healthy)
					}
				}
			}
		}
	}
}
