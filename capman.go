// Package capman is the public API of the CAPMAN reproduction: a cooling
// and active power management framework for big.LITTLE battery supported
// devices (Zhou, Xu, Zheng, Wang — ICDCS 2020), rebuilt on a calibrated
// simulation substrate.
//
// The package re-exports the stable surface of the internal packages:
//
//   - New / DefaultSchedulerConfig build the CAPMAN scheduler (the MDP +
//     structural-similarity battery manager of the paper's Section III).
//   - Run executes one simulated discharge cycle: a workload drives the
//     phone power models, a policy schedules the big.LITTLE pack, and the
//     thermal network with TEC active cooling closes the loop.
//   - The Workloads, Policies, Pack and Profile helpers assemble the
//     standard evaluation setups.
//
// A minimal session:
//
//	sched, err := capman.New(capman.DefaultSchedulerConfig())
//	if err != nil { ... }
//	res, err := capman.Run(capman.SimConfig{
//		Profile:  capman.NexusProfile(),
//		Workload: capman.VideoWorkload(42),
//		Policy:   sched,
//		Pack:     capman.DefaultPack(),
//		TEC:      capman.DefaultTEC(),
//	})
//	fmt.Printf("service time: %.1fh\n", res.ServiceTimeS/3600)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package capman

import (
	"context"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tec"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Aliases re-exporting the core types.
type (
	// Scheduler is the CAPMAN battery scheduler.
	Scheduler = core.Scheduler
	// SchedulerConfig parameterises the scheduler.
	SchedulerConfig = core.Config

	// SimConfig describes one simulated discharge cycle.
	SimConfig = sim.Config
	// Result is a discharge cycle's outcome.
	Result = sim.Result
	// CyclesConfig describes a multi-cycle (discharge + recharge) run.
	CyclesConfig = sim.CyclesConfig
	// CyclesResult aggregates a multi-cycle run.
	CyclesResult = sim.CyclesResult

	// Policy schedules the big.LITTLE pack.
	Policy = sched.Policy

	// PackConfig assembles a big.LITTLE battery pack.
	PackConfig = battery.PackConfig
	// CellParams describes one simulated cell.
	CellParams = battery.Params
	// Chemistry enumerates the surveyed lithium chemistries.
	Chemistry = battery.Chemistry

	// Profile is a phone power profile.
	Profile = device.Profile
	// Generator produces software demand.
	Generator = workload.Generator

	// TECDevice is a thermoelectric cooler model.
	TECDevice = tec.Device
	// ThermalConfig sizes the phone's thermal network.
	ThermalConfig = thermal.PhoneConfig

	// FaultPlan composes failure modes for injection into a run (set
	// SimConfig.Faults); same seed, same plan → identical Results.
	FaultPlan = fault.Plan
	// JobRegistry maps spec names onto workload/policy factories.
	JobRegistry = server.Registry
	// Server is capmand, the simulation-as-a-service HTTP subsystem.
	Server = server.Server
	// ServeConfig assembles a Server.
	ServeConfig = server.Config

	// Recorder collects span trees when attached to a run (set
	// SimConfig.Recorder or use WithRecorder on the run's context).
	Recorder = obs.Recorder
)

// Re-exported chemistry constants.
const (
	LCO = battery.LCO
	NCA = battery.NCA
	LMO = battery.LMO
)

// New builds the CAPMAN scheduler.
func New(cfg SchedulerConfig) (*Scheduler, error) { return core.New(cfg) }

// DefaultSchedulerConfig returns the evaluation's scheduler configuration.
func DefaultSchedulerConfig() SchedulerConfig { return core.DefaultConfig() }

// Run executes one simulated discharge cycle.
func Run(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// RunContext executes one simulated discharge cycle under a context;
// cancellation is observed at step granularity.
func RunContext(ctx context.Context, cfg SimConfig) (*Result, error) {
	return sim.RunContext(ctx, cfg)
}

// RunCycles executes repeated discharge cycles with CC-CV recharges of the
// same pack in between.
func RunCycles(cfg CyclesConfig) (*CyclesResult, error) { return sim.RunCycles(cfg) }

// NewServer builds capmand (the simulation service) and starts its worker
// pool; mount NewServer(cfg).Handler() or use cmd/capman-serve.
func NewServer(cfg ServeConfig) *Server { return server.New(cfg) }

// DefaultJobRegistry returns the registry of named workloads and policies
// that job specs resolve against. cmd/capman-sim resolves its runs through
// it and adds only the oracle policy and spec:<file> workloads. Extend it
// with RegisterWorkload/RegisterPolicy before passing it in
// ExecutorConfig.Registry.
func DefaultJobRegistry() *JobRegistry { return server.DefaultRegistry() }

// NewRecorder builds a span recorder; limit ≤ 0 uses the default bound.
func NewRecorder(limit int) *Recorder { return obs.NewRecorder(limit) }

// WithRecorder attaches a span recorder to a context, enabling tracing in
// RunContext without touching the SimConfig.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return obs.WithRecorder(ctx, rec)
}

// TuneOracle performs the offline threshold search behind the Oracle
// baseline and returns the best threshold with its run.
func TuneOracle(cfg SimConfig, thresholds []float64) (float64, *Result, error) {
	return sim.TuneOracle(cfg, thresholds)
}

// DefaultPack returns the paper's pack: 2500 mAh NCA (big) + 2500 mAh LMO
// (LITTLE) behind the switch facility with a supercapacitor filter.
func DefaultPack() PackConfig { return battery.DefaultPackConfig() }

// CellParamsFor returns calibrated parameters for a chemistry at the given
// capacity in mAh.
func CellParamsFor(c Chemistry, mah float64) (CellParams, error) {
	return battery.ParamsFor(c, mah)
}

// DefaultTEC returns the prototype's ATE-31-2.2A cooler.
func DefaultTEC() *TECDevice {
	d := tec.ATE31()
	return &d
}

// DefaultThermal returns the calibrated phone thermal network.
func DefaultThermal() ThermalConfig { return thermal.DefaultPhoneConfig() }

// Phone profiles of the prototype.
func NexusProfile() Profile  { return device.Nexus() }
func HonorProfile() Profile  { return device.Honor() }
func LenovoProfile() Profile { return device.Lenovo() }

// Baseline policies of the evaluation.
func PracticePolicy() Policy  { return sched.NewSingle() }
func DualPolicy() Policy      { return sched.NewDual() }
func HeuristicPolicy() Policy { return sched.NewHeuristic() }

// OraclePolicy wraps an offline-tuned threshold.
func OraclePolicy(wattThreshold float64) Policy { return sched.NewOracle(wattThreshold) }

// Workload factories of the evaluation. Each call returns a function that
// builds a fresh deterministic generator, as SimConfig.Workload expects.
func IdleWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewIdle(seed) }
}

// GeekbenchWorkload is the fully utilised benchmark.
func GeekbenchWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewGeekbench(seed) }
}

// PCMarkWorkload is the bursty CPU benchmark with user interactions.
func PCMarkWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewPCMark(seed) }
}

// VideoWorkload streams short videos with periodic fetches and seek spikes.
func VideoWorkload(seed int64) func() Generator {
	return func() Generator { return workload.NewVideo(seed) }
}

// EtaStaticWorkload mixes PCMark and Video; eta is the PCMark fraction.
func EtaStaticWorkload(eta float64, seed int64) (func() Generator, error) {
	return workload.Fresh(func() (Generator, error) { return workload.NewEtaStatic(eta, seed) })
}

// OnOffWorkload cycles the phone on and off with the given full period.
func OnOffWorkload(periodS float64, seed int64) (func() Generator, error) {
	return workload.Fresh(func() (Generator, error) { return workload.NewOnOff(periodS, seed) })
}
