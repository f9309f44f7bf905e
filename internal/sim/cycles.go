package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/battery"
	"repro/internal/fault"
)

// CyclesConfig describes a multi-day usage pattern: repeated discharge
// cycles separated by full CC-CV recharges of the same physical pack. The
// paper optimises within one cycle; adopters live across many — a stateful
// policy (CAPMAN) keeps its learned MDP across cycles exactly as a phone
// would across days.
type CyclesConfig struct {
	// Base is the per-cycle configuration; its Pack is built once and
	// recharged in place between cycles.
	Base Config
	// Cycles is how many discharge cycles to run.
	Cycles int
	// ChargeTempC is the ambient during charging (default 25).
	ChargeTempC float64
	// ChargeDT is the charger integration step (default 1s).
	ChargeDT float64
}

// CycleOutcome is one cycle's summary.
type CycleOutcome struct {
	Cycle        int
	ServiceTimeS float64
	ChargeTimeS  float64
	Switches     int
	MaxCPUTempC  float64
	EndReason    EndReason
	// FaultCounts and Degradations are the cycle's injected fault events
	// and guard transitions (Result.FaultCounts, len(Result.Degradations)).
	FaultCounts  fault.Counts
	Degradations int
}

// CyclesResult aggregates a multi-cycle run.
type CyclesResult struct {
	Outcomes     []CycleOutcome
	TotalOnTimeS float64
	TotalChargeS float64
}

// RunCycles executes the discharge/recharge loop on one pack. It is
// RunCyclesContext with a background context.
func RunCycles(cfg CyclesConfig) (*CyclesResult, error) {
	return RunCyclesContext(context.Background(), cfg)
}

// RunCyclesContext executes the discharge/recharge loop on one pack under a
// context; each discharge cycle runs through RunContext, so cancellation is
// observed at step granularity inside the current cycle.
func RunCyclesContext(ctx context.Context, cfg CyclesConfig) (*CyclesResult, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("sim: non-positive cycle count %d", cfg.Cycles)
	}
	if cfg.Base.Single != nil || cfg.Base.Source != nil {
		return nil, errors.New("sim: RunCycles builds its own pack from Base.Pack")
	}
	if cfg.ChargeTempC == 0 {
		cfg.ChargeTempC = 25
	}
	if cfg.ChargeDT == 0 {
		cfg.ChargeDT = 1
	}
	pack, err := battery.NewPack(cfg.Base.Pack)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}

	res := &CyclesResult{}
	prevSwitches := 0
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		runCfg := cfg.Base
		runCfg.Source = pack
		run, err := RunContext(ctx, runCfg)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		chargeS, err := battery.ChargePack(pack, cfg.ChargeTempC, cfg.ChargeDT)
		if err != nil {
			return nil, fmt.Errorf("cycle %d charge: %w", cycle, err)
		}
		res.Outcomes = append(res.Outcomes, CycleOutcome{
			Cycle:        cycle,
			ServiceTimeS: run.ServiceTimeS,
			ChargeTimeS:  chargeS,
			Switches:     run.Switches - prevSwitches,
			MaxCPUTempC:  run.MaxCPUTempC,
			EndReason:    run.EndReason,
			FaultCounts:  run.FaultCounts,
			Degradations: len(run.Degradations),
		})
		prevSwitches = run.Switches
		res.TotalOnTimeS += run.ServiceTimeS
		res.TotalChargeS += chargeS
	}
	return res, nil
}
