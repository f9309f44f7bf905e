// Package twin is the batched digital-twin engine: it steps thousands of
// independent device twins — each a full KiBaM/Thévenin cell + lumped RC
// thermal network + TEC hysteresis controller — in lockstep against one
// shared workload trace, with per-twin state packed into flat slices so the
// hot loop is allocation-free and cache-friendly.
//
// The twin models the single-cell fixed-policy device (battery.SingleSource
// under the Practice policy), which has no policy→physics feedback, so the
// whole software side of a run collapses into a precomputed power/heat
// trace shared by every twin. Each twin then diverges only through seeded
// process noise on load power and ambient temperature; detecting the first
// passage over the cell's cutoff/charge boundary per twin yields a Monte
// Carlo time-to-empty (TTE) distribution. With noise disabled a twin's
// trajectory is bit-identical to sim.Run on the same configuration (the
// oracle test in this package proves it), because both paths share the
// scalar step kernels: battery stepCore via battery.Lanes, the thermal
// step via the same thermal.Propagator that Network.Step uses, and the TEC
// via tec.Advance.
//
// Results are a pure function of (Config, Seed): twins are independent, so
// chunking them across any number of workers is bit-identical to a serial
// sweep.
package twin

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/tec"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// NoiseConfig shapes one Ornstein-Uhlenbeck process-noise channel.
type NoiseConfig struct {
	// Sigma is the stationary standard deviation: a fraction of demand
	// power for load noise, degrees Celsius for ambient noise. Zero
	// disables the channel.
	Sigma float64 `json:"sigma"`
	// TauS is the correlation time in seconds; zero or negative means
	// uncorrelated per-step (white) noise.
	TauS float64 `json:"tau_s"`
}

// Config describes one TTE estimation batch.
type Config struct {
	// Profile is the phone under test.
	Profile device.Profile
	// Workload builds the demand generator the shared trace is recorded
	// from; called exactly once.
	Workload func() workload.Generator
	// Cell parameterizes the single battery every twin carries.
	Cell battery.Params
	// Thermal configures the phone RC network (zero value = default).
	Thermal thermal.PhoneConfig
	// TEC, when non-nil, mounts active cooling on the CPU node with the
	// same threshold/hysteresis defaults as sim.Config.
	TEC            *tec.Device
	TECThresholdC  float64
	TECHysteresisC float64

	// DT is the step in seconds (default 0.25); HorizonS the simulated
	// span after which surviving twins are censored (default 86400, one
	// day).
	DT       float64
	HorizonS float64

	// Twins is the cohort size.
	Twins int
	// Seed fans out to independent per-twin noise streams (splitmix);
	// identical seeds give identical results at any worker count.
	Seed uint64

	// LoadNoise perturbs demand power multiplicatively: demand scales by
	// max(0, 1+x) with x the OU state. AmbientNoise perturbs the ambient
	// boundary node additively in degC. Both zero → every twin follows
	// the deterministic trajectory exactly.
	LoadNoise    NoiseConfig
	AmbientNoise NoiseConfig

	// Invariants, when non-nil, checks every twin's step against the
	// physics contracts in internal/invariant (lane-wise batch variant:
	// atomic per-contract counters, so totals are deterministic at any
	// worker count and the no-violation path allocates nothing). Summary
	// gains the per-contract counts; nil is bit-identical to an unchecked
	// batch.
	Invariants *invariant.Config
}

// withDefaults mirrors sim.Config's defaulting.
func (c Config) withDefaults() Config {
	if c.DT == 0 {
		c.DT = 0.25
	}
	if c.HorizonS == 0 {
		c.HorizonS = 86400
	}
	if c.TECThresholdC == 0 {
		c.TECThresholdC = thermal.HotSpotThresholdC
	}
	if c.TECHysteresisC == 0 {
		c.TECHysteresisC = 3
	}
	if c.Thermal == (thermal.PhoneConfig{}) {
		c.Thermal = thermal.DefaultPhoneConfig()
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Workload == nil:
		return errors.New("twin: nil workload factory")
	case c.Twins <= 0:
		return fmt.Errorf("twin: need at least one twin, got %d", c.Twins)
	case c.DT < 0 || c.HorizonS < 0:
		return errors.New("twin: negative time knob")
	case c.LoadNoise.Sigma < 0 || c.AmbientNoise.Sigma < 0:
		return errors.New("twin: negative noise sigma")
	case c.LoadNoise.TauS < 0 || c.AmbientNoise.TauS < 0:
		return errors.New("twin: negative noise correlation time")
	case c.TECHysteresisC < 0:
		return fmt.Errorf("twin: negative hysteresis %v", c.TECHysteresisC)
	}
	if c.TEC != nil {
		if err := c.TEC.Validate(); err != nil {
			return err
		}
	}
	if err := c.Cell.Validate(); err != nil {
		return err
	}
	return c.Profile.Validate()
}

// End reasons, shared with sim.Result so summaries read the same.
const (
	reasonExhausted  = "battery exhausted"
	reasonUnservable = "demand unservable"
	reasonCensored   = "time limit"
)

// Per-twin end codes.
const (
	endAlive uint8 = iota
	endExhausted
	endUnservable
	endCensored
)

// chunkTwins is how many twins one worker claims at a time; large enough to
// amortize channel traffic, small enough to balance uneven death times.
const chunkTwins = 256

// Batch holds the cohort state in structure-of-arrays form. All per-twin
// state lives in flat slices indexed by twin; the shared workload trace is
// indexed by step. A Batch is not safe for concurrent use except through
// Run, which partitions twins disjointly across workers.
type Batch struct {
	cfg          Config
	workloadName string

	// Shared trace, one entry per step: total demand power and its heat
	// split. Total is stored separately from the split because
	// PowerBreakdown.Total sums in a different association order than
	// cpu+body, and bit-exactness with sim.Run demands the same value.
	totalW    []float64
	cpuHeatW  []float64
	bodyHeatW []float64
	nows      []float64 // simulated time at the start of step k
	endNow    float64   // simulated time after the last step

	// Thermal network structure and its exact step, shared by every twin.
	nodes  []thermal.Node
	nNodes int
	prop   *thermal.Propagator

	hasTEC bool
	tecDev tec.Device

	cells *battery.Lanes

	// Per-twin lanes.
	temps      []float64 // twin-major, nNodes per twin
	maxCPU     []float64
	maxBody    []float64
	tecOn      []bool
	tecEnergyJ []float64
	deliveredJ []float64
	wastedJ    []float64
	rng        []uint64
	gSpare     []float64
	gHas       []bool
	loadX      []float64
	ambX       []float64
	tteS       []float64
	end        []uint8

	hasLoadNoise bool
	hasAmbNoise  bool
	aLoad, bLoad float64
	aAmb, bAmb   float64

	// inv is the lane-wise safety-invariant checker; nil when unchecked.
	inv *invariant.BatchChecker

	cursor int
	now    float64
	alive  int
}

// New precomputes the shared workload trace and allocates the cohort at
// full charge. All allocation happens here; stepping is allocation-free.
func New(cfg Config) (*Batch, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	phone, err := device.NewPhone(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("twin: phone: %w", err)
	}
	gen := cfg.Workload()

	b := &Batch{cfg: cfg, workloadName: gen.Name()}

	// Record the software side once: the single-cell fixed-policy device
	// has no feedback from physics into demand, so this trace is exact
	// for every twin (modulo the load-noise scale factor).
	steps := int(cfg.HorizonS/cfg.DT) + 1
	b.totalW = make([]float64, 0, steps)
	b.cpuHeatW = make([]float64, 0, steps)
	b.bodyHeatW = make([]float64, 0, steps)
	b.nows = make([]float64, 0, steps)
	now := 0.0
	for now < cfg.HorizonS {
		step := gen.Next(now, cfg.DT)
		if err := phone.Apply(step.Demand); err != nil {
			return nil, fmt.Errorf("twin: t=%.1f apply demand: %w", now, err)
		}
		breakdown := phone.Power()
		cpuHeat, bodyHeat := phone.HeatSplit()
		b.totalW = append(b.totalW, breakdown.Total())
		b.cpuHeatW = append(b.cpuHeatW, cpuHeat)
		b.bodyHeatW = append(b.bodyHeatW, bodyHeat)
		b.nows = append(b.nows, now)
		now += cfg.DT
	}
	b.endNow = now

	net, err := thermal.PhoneNetwork(cfg.Thermal)
	if err != nil {
		return nil, fmt.Errorf("twin: thermal: %w", err)
	}
	b.nodes = net.Nodes()
	b.nNodes = len(b.nodes)
	if b.prop, err = net.Propagator(cfg.DT); err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}

	if cfg.TEC != nil {
		b.hasTEC = true
		b.tecDev = *cfg.TEC
	}

	b.cells, err = battery.NewLanes(cfg.Cell, cfg.Twins, cfg.DT)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}

	n := cfg.Twins
	b.temps = make([]float64, n*b.nNodes)
	b.maxCPU = make([]float64, n)
	b.maxBody = make([]float64, n)
	b.tecOn = make([]bool, n)
	b.tecEnergyJ = make([]float64, n)
	b.deliveredJ = make([]float64, n)
	b.wastedJ = make([]float64, n)
	b.rng = make([]uint64, n)
	b.gSpare = make([]float64, n)
	b.gHas = make([]bool, n)
	b.loadX = make([]float64, n)
	b.ambX = make([]float64, n)
	b.tteS = make([]float64, n)
	b.end = make([]uint8, n)

	b.hasLoadNoise = cfg.LoadNoise.Sigma > 0
	b.hasAmbNoise = cfg.AmbientNoise.Sigma > 0
	b.aLoad, b.bLoad = ouCoeffs(cfg.LoadNoise.Sigma, cfg.LoadNoise.TauS, cfg.DT)
	b.aAmb, b.bAmb = ouCoeffs(cfg.AmbientNoise.Sigma, cfg.AmbientNoise.TauS, cfg.DT)

	if cfg.Invariants != nil {
		p := invariant.BatchParams{
			CapacityC: cfg.Cell.CapacityCoulomb * cfg.Cell.UsableFraction,
			CutoffV:   cfg.Cell.CutoffV,
		}
		if b.hasTEC {
			p.TECMaxCurrentA = b.tecDev.MaxCurrentA
		}
		b.inv = invariant.NewBatchChecker(*cfg.Invariants, n, p)
	}

	b.Reset()
	return b, nil
}

// Reset rewinds every twin to t=0 at full charge without allocating, so
// benchmarks can reuse one Batch across iterations.
func (b *Batch) Reset() {
	b.cells.Reset()
	for i := 0; i < b.cfg.Twins; i++ {
		for nd := 0; nd < b.nNodes; nd++ {
			b.temps[i*b.nNodes+nd] = b.nodes[nd].InitialC
		}
		b.maxCPU[i] = b.nodes[thermal.NodeCPU].InitialC
		b.maxBody[i] = b.nodes[thermal.NodeBody].InitialC
		b.tecOn[i] = false
		b.tecEnergyJ[i] = 0
		b.deliveredJ[i] = 0
		b.wastedJ[i] = 0
		b.rng[i] = twinSeed(b.cfg.Seed, i)
		b.gSpare[i] = 0
		b.gHas[i] = false
		b.loadX[i] = 0
		b.ambX[i] = 0
		b.tteS[i] = 0
		b.end[i] = endAlive
		if b.inv != nil {
			b.inv.Prime(i, b.cells.Avail[i]+b.cells.Bound[i],
				b.nodes[thermal.NodeCPU].InitialC,
				b.nodes[thermal.NodeBattery].InitialC,
				b.nodes[thermal.NodeBody].InitialC)
		}
	}
	b.cursor = 0
	b.now = 0
	b.alive = b.cfg.Twins
}

// Twins returns the cohort size.
func (b *Batch) Twins() int { return b.cfg.Twins }

// Steps returns the number of trace steps to the horizon.
func (b *Batch) Steps() int { return len(b.nows) }

// Alive returns how many twins have not yet ended.
func (b *Batch) Alive() int { return b.alive }

// stepRange advances twins [lo, hi) through trace step k and returns how
// many of them ended. It touches only lanes in [lo, hi), so disjoint ranges
// may run concurrently. The hot path allocates nothing: the heat inputs
// are a fixed-size stack array and all state lives in preallocated lanes.
func (b *Batch) stepRange(k, lo, hi int) int {
	dt := b.cfg.DT
	totalW := b.totalW[k]
	cpuHeatW := b.cpuHeatW[k]
	bodyHeatW := b.bodyHeatW[k]
	now := b.nows[k]
	died := 0
	var inputs [thermal.NodeSpreader + 1]float64
	inputs[thermal.NodeBody] = bodyHeatW
	for i := lo; i < hi; i++ {
		if b.end[i] != endAlive {
			continue
		}
		temps := b.temps[i*b.nNodes : (i+1)*b.nNodes]

		// Process noise, in a fixed draw order (load, then ambient) so
		// the stream is reproducible. With both channels off this block
		// is skipped entirely and the step is bit-identical to sim.Run.
		demandW := totalW
		if b.hasLoadNoise {
			b.loadX[i] = b.aLoad*b.loadX[i] + b.bLoad*b.gauss(i)
			f := 1 + b.loadX[i]
			if f < 0 {
				f = 0
			}
			demandW = totalW * f
		}
		if b.hasAmbNoise {
			b.ambX[i] = b.aAmb*b.ambX[i] + b.bAmb*b.gauss(i)
			temps[thermal.NodeAmbient] = b.cfg.Thermal.AmbientC + b.ambX[i]
		}

		cpuTemp := temps[thermal.NodeCPU]
		battTemp := temps[thermal.NodeBattery]
		spreaderTemp := temps[thermal.NodeSpreader]

		var tecOut tec.Output
		if b.hasTEC {
			b.tecOn[i], tecOut = tec.Advance(b.tecDev, b.tecOn[i],
				b.cfg.TECThresholdC, b.cfg.TECHysteresisC, cpuTemp, spreaderTemp, tec.Condition{})
			b.tecEnergyJ[i] += tecOut.PowerW * dt
		}
		demandW += tecOut.PowerW

		res, code := b.cells.Step(i, demandW, battTemp)
		if code.Failed() {
			// First passage over the cutoff/charge boundary: the twin
			// ends here, thermal state frozen, exactly as sim.Run
			// breaks before its thermal step.
			if code == battery.StepDepleted {
				b.end[i] = endExhausted
			} else {
				b.end[i] = endUnservable
			}
			b.tteS[i] = now
			died++
			continue
		}

		// Thermal step: the propagator sim.Run steps through, with the
		// heat inputs laid out as sim.Run lays them out.
		inputs[thermal.NodeCPU] = cpuHeatW - tecOut.CPUCoolingW
		inputs[thermal.NodeBattery] = res.HeatW
		inputs[thermal.NodeSpreader] = tecOut.RejectedHeatW
		b.prop.Step(temps, inputs[:])
		if temps[thermal.NodeCPU] > b.maxCPU[i] {
			b.maxCPU[i] = temps[thermal.NodeCPU]
		}
		if temps[thermal.NodeBody] > b.maxBody[i] {
			b.maxBody[i] = temps[thermal.NodeBody]
		}

		b.deliveredJ[i] += demandW * dt
		b.wastedJ[i] += res.HeatW * dt

		// Safety contracts over the raw lanes. Disjoint twin ranges keep
		// the checker race-free for the same reason they keep the lanes
		// race-free, and the no-violation path allocates nothing.
		if b.inv != nil {
			b.inv.CheckLane(invariant.LaneStep{
				Twin: i,
				Now:  now,
				DT:   dt,

				AvailC: b.cells.Avail[i],
				BoundC: b.cells.Bound[i],

				StepOK:   true,
				PowerW:   demandW,
				VoltageV: res.Voltage,

				CPUTempC:     temps[thermal.NodeCPU],
				BatteryTempC: temps[thermal.NodeBattery],
				BodyTempC:    temps[thermal.NodeBody],

				TECPowerW:   tecOut.PowerW,
				TECCurrentA: tecOut.CurrentA,
			})
		}
	}
	return died
}

// Step advances every live twin by one tick serially and returns the number
// still alive. It is the benchmarked hot path; TestBatchedStepAllocFree
// pins it at zero allocations.
func (b *Batch) Step() int {
	if b.cursor >= len(b.nows) {
		return b.alive
	}
	b.alive -= b.stepRange(b.cursor, 0, b.cfg.Twins)
	b.cursor++
	if b.cursor >= len(b.nows) {
		b.now = b.endNow
	} else {
		b.now = b.nows[b.cursor]
	}
	return b.alive
}

// Run sweeps every twin to its end (first passage or horizon), chunking
// twins across workers. workers <= 0 uses GOMAXPROCS. Twins never interact,
// so the result is bit-identical at any worker count. Cancellation is
// cooperative; on error the batch state is partial and must be Reset.
func (b *Batch) Run(ctx context.Context, workers int) error {
	if b.cursor != 0 {
		return errors.New("twin: batch already stepped; Reset before Run")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := b.cfg.Twins
	nChunks := (n + chunkTwins - 1) / chunkTwins
	if workers > nChunks {
		workers = nChunks
	}

	// Log under the caller's identity: capmand binds a request-tagged
	// logger into the job context, so these lines carry the request ID.
	log := obs.Logger(ctx)
	log.Debug("twin: batch run start",
		"twins", n, "steps", len(b.nows), "workers", workers)

	spans := make(chan [2]int, nChunks)
	for lo := 0; lo < n; lo += chunkTwins {
		hi := lo + chunkTwins
		if hi > n {
			hi = n
		}
		spans <- [2]int{lo, hi}
	}
	close(spans)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range spans {
				lo, hi := sp[0], sp[1]
				aliveLocal := hi - lo
				for k := 0; k < len(b.nows) && aliveLocal > 0; k++ {
					if k&1023 == 0 {
						if err := ctx.Err(); err != nil {
							errOnce.Do(func() { firstErr = err })
							return
						}
					}
					aliveLocal -= b.stepRange(k, lo, hi)
				}
				// Censor survivors at the horizon.
				for i := lo; i < hi; i++ {
					if b.end[i] == endAlive {
						b.end[i] = endCensored
						b.tteS[i] = b.endNow
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		log.Warn("twin: batch run aborted", "error", firstErr)
		return fmt.Errorf("twin: aborted: %w", firstErr)
	}
	b.cursor = len(b.nows)
	b.now = b.endNow
	b.alive = 0
	log.Debug("twin: batch run done", "twins", n)
	return nil
}

// Per-twin accessors (observation only; used by the oracle test and CLI).

// TTE returns twin i's time to empty in seconds; for a censored twin this
// is the horizon.
func (b *Batch) TTE(i int) float64 { return b.tteS[i] }

// EndReason returns twin i's end reason using sim.Result's vocabulary, or
// "" while the twin is still alive.
func (b *Batch) EndReason(i int) string {
	switch b.end[i] {
	case endExhausted:
		return reasonExhausted
	case endUnservable:
		return reasonUnservable
	case endCensored:
		return reasonCensored
	}
	return ""
}

// SoC returns twin i's battery state of charge.
func (b *Batch) SoC(i int) float64 { return b.cells.SoC(i) }

// MaxCPUTempC returns the hottest CPU-node temperature twin i reached.
func (b *Batch) MaxCPUTempC(i int) float64 { return b.maxCPU[i] }

// MaxBodyTempC returns the hottest body-node temperature twin i reached.
func (b *Batch) MaxBodyTempC(i int) float64 { return b.maxBody[i] }

// DeliveredJ returns the energy delivered to twin i's load.
func (b *Batch) DeliveredJ(i int) float64 { return b.deliveredJ[i] }

// WastedJ returns twin i's cumulative battery losses.
func (b *Batch) WastedJ(i int) float64 { return b.wastedJ[i] }

// TECEnergyJ returns twin i's cumulative TEC electrical energy.
func (b *Batch) TECEnergyJ(i int) float64 { return b.tecEnergyJ[i] }

// Invariants returns the cohort's safety-contract violation report, or nil
// when the checker was off or the cohort was clean. The detail list's order
// depends on worker interleaving; the counts do not.
func (b *Batch) Invariants() *invariant.Report {
	if b.inv == nil {
		return nil
	}
	return b.inv.Report()
}

// Summary is the Monte Carlo TTE estimate for one cohort.
type Summary struct {
	Phone     string `json:"phone"`
	Workload  string `json:"workload"`
	Chemistry string `json:"chemistry"`

	Twins    int     `json:"twins"`
	Steps    int     `json:"steps"`
	DTS      float64 `json:"dt_s"`
	HorizonS float64 `json:"horizon_s"`
	Seed     uint64  `json:"seed"`

	LoadNoise    NoiseConfig `json:"load_noise"`
	AmbientNoise NoiseConfig `json:"ambient_noise"`

	// Emptied counts twins that hit the cutoff/charge boundary before the
	// horizon; Censored the survivors. EndReasons tallies per reason.
	Emptied    int            `json:"emptied"`
	Censored   int            `json:"censored"`
	EndReasons map[string]int `json:"end_reasons"`

	// Nearest-rank TTE percentiles over the whole cohort, censored twins
	// included at the horizon (so p95 == horizon means ≥5% survived).
	TTEP5S  float64 `json:"tte_p5_s"`
	TTEP50S float64 `json:"tte_p50_s"`
	TTEP95S float64 `json:"tte_p95_s"`
	TTEMinS float64 `json:"tte_min_s"`
	TTEMaxS float64 `json:"tte_max_s"`
	MeanS   float64 `json:"tte_mean_s"`

	MeanEnergyJ     float64 `json:"mean_energy_j"`
	MeanMaxCPUTempC float64 `json:"mean_max_cpu_temp_c"`
	MeanTECEnergyJ  float64 `json:"mean_tec_energy_j"`

	// InvariantViolations tallies safety-contract breaches per contract
	// name across the whole cohort; nil when the checker was off or the
	// cohort was clean. The counts are deterministic at any worker count.
	InvariantViolations map[string]int `json:"invariant_violations,omitempty"`
	// InvariantFatal reports whether any fatal-severity contract fired.
	InvariantFatal bool `json:"invariant_fatal,omitempty"`
}

// Summarize reduces the cohort to its TTE distribution. Twins still alive
// (partial serial stepping) are treated as censored at the current time.
func (b *Batch) Summarize() *Summary {
	n := b.cfg.Twins
	s := &Summary{
		Phone:        b.cfg.Profile.Name,
		Workload:     b.workloadName,
		Chemistry:    b.cfg.Cell.Chemistry.String(),
		Twins:        n,
		Steps:        b.cursor,
		DTS:          b.cfg.DT,
		HorizonS:     b.cfg.HorizonS,
		Seed:         b.cfg.Seed,
		LoadNoise:    b.cfg.LoadNoise,
		AmbientNoise: b.cfg.AmbientNoise,
		EndReasons:   map[string]int{},
	}
	ttes := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		tte, reason := b.tteS[i], b.EndReason(i)
		if b.end[i] == endAlive {
			tte, reason = b.now, reasonCensored
		}
		ttes[i] = tte
		sum += tte
		s.EndReasons[reason]++
		if reason == reasonCensored {
			s.Censored++
		} else {
			s.Emptied++
		}
		s.MeanEnergyJ += b.deliveredJ[i]
		s.MeanMaxCPUTempC += b.maxCPU[i]
		s.MeanTECEnergyJ += b.tecEnergyJ[i]
	}
	if b.inv != nil {
		s.InvariantViolations = b.inv.Counts()
		s.InvariantFatal = b.inv.Fatal()
	}
	sort.Float64s(ttes)
	s.TTEMinS = ttes[0]
	s.TTEMaxS = ttes[n-1]
	s.TTEP5S = percentile(ttes, 0.05)
	s.TTEP50S = percentile(ttes, 0.50)
	s.TTEP95S = percentile(ttes, 0.95)
	s.MeanS = sum / float64(n)
	s.MeanEnergyJ /= float64(n)
	s.MeanMaxCPUTempC /= float64(n)
	s.MeanTECEnergyJ /= float64(n)
	return s
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
