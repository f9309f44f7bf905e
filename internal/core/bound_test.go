package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simstruct"
)

// TestServedModelsValueBound checks the paper's competitiveness bound
// |V*_u - V*_v| <= delta_S*(u,v)/(1-rho) against an independent oracle on
// the models served capman jobs actually learn: the nine capbench-shaped
// discharge sims (three profiles × three workloads, seed 7, 200 mAh
// cells), each after its run. sigma is computed on the full graph, which
// keeps every state's "stay" action, and V* is solved to 1e-12, so the
// bound must hold over every state pair of every model.
func TestServedModelsValueBound(t *testing.T) {
	reg := server.DefaultRegistry()
	for _, profile := range []string{"Nexus", "Honor", "Lenovo"} {
		for _, wl := range []string{"video", "pcmark", "geekbench"} {
			t.Run(fmt.Sprintf("%s/%s", profile, wl), func(t *testing.T) {
				cfg, err := reg.Resolve(server.JobSpec{
					Profile: profile, Workload: wl, Seed: 7,
					Policy: "capman", BigMAh: 200, LittleMAh: 200,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Run(cfg); err != nil {
					t.Fatal(err)
				}
				sch, ok := cfg.Policy.(*core.Scheduler)
				if !ok {
					t.Fatalf("policy %T is not the capman scheduler", cfg.Policy)
				}
				checkValueBound(t, sch.Model(), sch.Rho())
			})
		}
	}
}

func checkValueBound(t *testing.T, m *mdp.Model, rho float64) {
	t.Helper()
	if m == nil {
		t.Fatal("no model learned")
	}
	sol, err := m.ValueIteration(rho, 1e-12, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mdp.BuildGraph(m, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simstruct.Compute(g, simstruct.DefaultConfig(rho))
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumStates()
	violations := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gap := math.Abs(sol.V[u] - sol.V[v])
			bound := res.ValueBound(mdp.State(u), mdp.State(v), rho)
			if gap > bound+1e-9 {
				if violations < 5 {
					t.Errorf("states %d,%d: |V*u-V*v| = %.6g exceeds bound %.6g", u, v, gap, bound)
				}
				violations++
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d of %d state pairs violate the bound", violations, n*(n-1)/2)
	}
}
