package server

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tec"
	"repro/internal/workload"
)

// WorkloadFactory builds a fresh-generator factory for a spec. It is
// called once per job, at resolution time, and must validate its
// parameters (returning an error resolves to HTTP 400).
type WorkloadFactory func(spec JobSpec) (func() workload.Generator, error)

// PolicyFactory installs a policy into the resolved configuration. It may
// also reshape the power source (the practice baseline swaps the pack for
// a single cell), which is why it receives the whole config.
type PolicyFactory func(spec JobSpec, cfg *sim.Config) error

// Registry maps the names a JobSpec may use onto the factories that build
// the corresponding simulator components. It is safe for concurrent use;
// registration after the server starts serving is allowed and takes effect
// for subsequent submissions.
type Registry struct {
	mu        sync.RWMutex
	workloads map[string]WorkloadFactory
	policies  map[string]PolicyFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		workloads: make(map[string]WorkloadFactory),
		policies:  make(map[string]PolicyFactory),
	}
}

// RegisterWorkload adds or replaces a named workload factory.
func (r *Registry) RegisterWorkload(name string, f WorkloadFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("server: workload registration needs a name and a factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workloads[name] = f
	return nil
}

// RegisterPolicy adds or replaces a named policy factory.
func (r *Registry) RegisterPolicy(name string, f PolicyFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("server: policy registration needs a name and a factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policies[name] = f
	return nil
}

// Workloads lists the registered workload names, sorted.
func (r *Registry) Workloads() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.workloads)
}

// Policies lists the registered policy names, sorted.
func (r *Registry) Policies() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.policies)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resolvedBase is what every job kind resolves alike: the defaulted
// spec, its device profile, a fresh workload factory and the TEC mount
// (nil when DisableTEC).
type resolvedBase struct {
	spec     JobSpec
	profile  device.Profile
	workload func() workload.Generator
	tec      *tec.Device
}

// resolveBase is the preamble Resolve and ResolveTTE share: validate and
// default the spec, then resolve its profile, workload and TEC mount.
func (r *Registry) resolveBase(spec JobSpec) (resolvedBase, error) {
	if err := spec.Validate(); err != nil {
		return resolvedBase{}, err
	}
	spec = spec.withDefaults()
	profile, err := device.ProfileByName(spec.Profile)
	if err != nil {
		return resolvedBase{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	r.mu.RLock()
	wf, ok := r.workloads[spec.Workload]
	r.mu.RUnlock()
	if !ok {
		return resolvedBase{}, fmt.Errorf("%w: unknown workload %q (have %v)",
			ErrBadSpec, spec.Workload, r.Workloads())
	}
	wlFactory, err := wf(spec)
	if err != nil {
		return resolvedBase{}, fmt.Errorf("%w: workload %q: %v", ErrBadSpec, spec.Workload, err)
	}
	b := resolvedBase{spec: spec, profile: profile, workload: wlFactory}
	if !spec.DisableTEC {
		dev := tec.ATE31()
		b.tec = &dev
	}
	return b, nil
}

// cellParams builds the parameters of a cell of the named Table I
// chemistry (NCA, LMO, ...) and capacity.
func cellParams(chem string, mAh float64) (battery.Params, error) {
	for _, c := range battery.Chemistries() {
		if c.String() == chem {
			return battery.ParamsFor(c, mAh)
		}
	}
	return battery.Params{}, fmt.Errorf("unknown chemistry %q", chem)
}

// DefaultRegistry returns a registry populated with the evaluation's
// workloads and policies. cmd/capman-sim resolves its runs through it and
// adds only the oracle policy and spec:<file> workloads.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.RegisterWorkload("idle", func(s JobSpec) (func() workload.Generator, error) {
		return func() workload.Generator { return workload.NewIdle(s.Seed) }, nil
	})
	r.RegisterWorkload("geekbench", func(s JobSpec) (func() workload.Generator, error) {
		return func() workload.Generator { return workload.NewGeekbench(s.Seed) }, nil
	})
	r.RegisterWorkload("pcmark", func(s JobSpec) (func() workload.Generator, error) {
		return func() workload.Generator { return workload.NewPCMark(s.Seed) }, nil
	})
	r.RegisterWorkload("video", func(s JobSpec) (func() workload.Generator, error) {
		return func() workload.Generator { return workload.NewVideo(s.Seed) }, nil
	})
	r.RegisterWorkload("eta", func(s JobSpec) (func() workload.Generator, error) {
		return workload.Fresh(func() (workload.Generator, error) { return workload.NewEtaStatic(s.Eta, s.Seed) })
	})
	r.RegisterWorkload("onoff", func(s JobSpec) (func() workload.Generator, error) {
		return workload.Fresh(func() (workload.Generator, error) { return workload.NewOnOff(s.PeriodS, s.Seed) })
	})

	r.RegisterPolicy("capman", func(s JobSpec, cfg *sim.Config) error {
		capCfg := core.DefaultConfig()
		capCfg.Seed = s.Seed
		capCfg.OverheadScale = cfg.Profile.DecisionOverheadScale
		p, err := core.New(capCfg)
		if err != nil {
			return err
		}
		cfg.Policy = p
		return nil
	})
	r.RegisterPolicy("dual", func(s JobSpec, cfg *sim.Config) error {
		cfg.Policy = sched.NewDual()
		return nil
	})
	r.RegisterPolicy("heuristic", func(s JobSpec, cfg *sim.Config) error {
		cfg.Policy = sched.NewHeuristic()
		return nil
	})
	r.RegisterPolicy("practice", func(s JobSpec, cfg *sim.Config) error {
		single, err := battery.ParamsFor(battery.LCO, s.BigMAh)
		if err != nil {
			return err
		}
		cfg.Single = &single
		cfg.Policy = sched.NewSingle()
		return nil
	})
	r.RegisterPolicy("threshold", func(s JobSpec, cfg *sim.Config) error {
		cfg.Policy = &sched.Threshold{WattThreshold: s.ThresholdW}
		return nil
	})
	return r
}
