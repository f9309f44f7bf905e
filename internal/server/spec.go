// Package server is capmand: the simulator exposed as a long-running
// HTTP JSON service. Its four layers are a declarative job API backed by a
// registry of named factories (spec.go, registry.go), a bounded worker-pool
// executor with FIFO queueing and cooperative cancellation (executor.go,
// job.go) that runs each job kind through its own runner (kind.go,
// kind_sim.go, kind_tte.go), a content-addressed result cache with
// single-flight coalescing (cache.go), and stdlib Prometheus-format
// observability (metrics.go). The HTTP surface lives in server.go;
// cmd/capman-serve is the binary.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
)

// JobSpec is the declarative description of one simulation job, the wire
// payload of POST /v1/jobs. Unlike sim.Config it carries no code — every
// component is named and resolved through a Registry — so a spec can be
// validated, canonicalized, and hashed for the result cache.
type JobSpec struct {
	// Kind selects the job type: "sim" (the default; one policy-driven
	// discharge simulation) or "tte" (a Monte Carlo time-to-empty batch
	// over internal/twin, parameterized by TTE). POST /v1/tte submits tte
	// jobs; POST /v1/jobs accepts either kind explicitly.
	Kind string `json:"kind,omitempty"`

	// Profile names the phone under test (Nexus, Honor, Lenovo).
	Profile string `json:"profile"`

	// Workload names a registered workload factory (idle, geekbench,
	// pcmark, video, eta, onoff, ...). Seed drives its RNG; Eta and
	// PeriodS parameterise the eta and onoff workloads and are ignored by
	// the rest.
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Eta      float64 `json:"eta,omitempty"`
	PeriodS  float64 `json:"periodS,omitempty"`

	// Policy names a registered policy factory (capman, dual, heuristic,
	// practice, threshold). ThresholdW parameterises the threshold policy.
	Policy     string  `json:"policy"`
	ThresholdW float64 `json:"thresholdW,omitempty"`

	// Pack geometry. Chemistries default to the paper's NCA big + LMO
	// LITTLE; capacities default to 2500 mAh each. The practice policy
	// replaces the pack with a single LCO cell of BigMAh.
	BigChemistry    string  `json:"bigChemistry,omitempty"`
	LittleChemistry string  `json:"littleChemistry,omitempty"`
	BigMAh          float64 `json:"bigMAh,omitempty"`
	LittleMAh       float64 `json:"littleMAh,omitempty"`

	// DisableTEC removes the thermoelectric cooler (mounted by default).
	DisableTEC bool `json:"disableTEC,omitempty"`

	// AmbientC moves the thermal network's ambient node (default 25 °C
	// — room temperature), so hot-room / cold-start scenarios are one
	// knob away. Sim jobs only; 0 means the default.
	AmbientC float64 `json:"ambientC,omitempty"`

	// Simulation knobs, defaulted as in sim.Config.
	DT       float64 `json:"dt,omitempty"`
	MaxTimeS float64 `json:"maxTimeS,omitempty"`

	// Cycles > 1 runs a multi-cycle discharge/recharge loop instead of a
	// single discharge cycle; 0 and 1 both mean one cycle.
	Cycles int `json:"cycles,omitempty"`

	// FaultPlan names a fault-injection plan from the fault package's
	// library (stuck-switch, tec-dropout, chaos, ...); empty or "none"
	// runs fault-free. The plan's RNG is seeded from Seed, so a job spec
	// remains a complete, reproducible description of its run.
	FaultPlan string `json:"faultPlan,omitempty"`

	// TTE parameterizes kind "tte" jobs; nil (and ignored) for sim jobs.
	TTE *TTEParams `json:"tte,omitempty"`
}

// TTEParams shapes one Monte Carlo time-to-empty batch. The twin cohort
// uses the spec's Profile/Workload/Seed/DT/DisableTEC knobs; the fields
// here are specific to the batch.
type TTEParams struct {
	// Twins is the cohort size: required, at most MaxTTETwins. (There is
	// no default — JSON cannot tell an omitted count from an explicit
	// zero, and silently running 1024 twins would be a surprise.)
	Twins int `json:"twins,omitempty"`
	// HorizonS censors survivors after this much simulated time (default
	// 86400 — one day — max MaxTTEHorizonS).
	HorizonS float64 `json:"horizonS,omitempty"`
	// Chemistry and MAh size the single cell every twin carries (default
	// NCA 2500).
	Chemistry string  `json:"chemistry,omitempty"`
	MAh       float64 `json:"mAh,omitempty"`
	// LoadNoiseFrac is the stationary sigma of the multiplicative load
	// noise (fraction of demand power); AmbientNoiseC the sigma of the
	// additive ambient-temperature noise in degC. Zero disables a channel.
	LoadNoiseFrac float64 `json:"loadNoiseFrac,omitempty"`
	AmbientNoiseC float64 `json:"ambientNoiseC,omitempty"`
	// NoiseTauS is the OU correlation time for both channels (default 60;
	// negative invalid).
	NoiseTauS float64 `json:"noiseTauS,omitempty"`
}

// TTE batch ceilings: a full-size cohort over a three-day horizon is the
// largest job one worker should ever hold.
const (
	MaxTTETwins    = 65536
	MaxTTEHorizonS = 259200
)

// Spec errors.
var ErrBadSpec = errors.New("server: invalid job spec")

// withDefaults fills unset knobs so that two specs that resolve to the
// same simulation canonicalize to the same bytes. String fields are
// scrubbed to valid UTF-8 first — exactly what the JSON round trip
// through the wire does; without it Canonical would not be a fixed point
// for in-process callers (json.Marshal escapes an invalid byte as the
// six-byte sequence \ufffd, which decodes to the actual replacement rune
// and re-encodes as different bytes, splitting one job across two cache
// keys). The field-by-field work lives in normalized (canon.go), which
// the zero-alloc admission path calls directly to avoid the *TTEParams
// allocation made here.
func (s JobSpec) withDefaults() JobSpec {
	n, t, isTTE := s.normalized()
	if isTTE {
		n.TTE = &t
	}
	return n
}

// kindName names the spec's job kind: "tte", or "sim" for every other
// spelling (an empty Kind means a discharge simulation, and Validate
// rejects unknown kinds). Traces, pprof labels and Executor.resolve read
// it, so they can never disagree on a job's kind.
func (s JobSpec) kindName() string {
	if s.Kind == "tte" {
		return "tte"
	}
	return "sim"
}

// Validate reports the first structural problem with the spec. Name
// resolution (unknown profile/workload/policy) is the Registry's job;
// Validate checks only what the spec alone can know.
func (s JobSpec) Validate() error {
	if name := s.nonFinite(); name != "" {
		return fmt.Errorf("%w: %s is not a finite number", ErrBadSpec, name)
	}
	raw := s
	s = s.withDefaults()
	if s.DT < 0 {
		return fmt.Errorf("%w: negative time knob", ErrBadSpec)
	}
	if s.Kind == "tte" {
		return validateTTE(raw, s)
	}
	if s.Kind != "" {
		return fmt.Errorf("%w: unknown job kind %q", ErrBadSpec, s.Kind)
	}
	if raw.TTE != nil {
		return fmt.Errorf("%w: tte parameters require kind %q", ErrBadSpec, "tte")
	}
	switch {
	case s.MaxTimeS < 0:
		return fmt.Errorf("%w: negative time knob", ErrBadSpec)
	case s.Cycles < 0:
		return fmt.Errorf("%w: negative cycle count %d", ErrBadSpec, s.Cycles)
	case s.BigMAh <= 0 || s.LittleMAh <= 0:
		return fmt.Errorf("%w: non-positive capacity", ErrBadSpec)
	case s.ThresholdW < 0:
		return fmt.Errorf("%w: negative threshold %v", ErrBadSpec, s.ThresholdW)
	case s.AmbientC < -40 || s.AmbientC > 60:
		return fmt.Errorf("%w: ambient %v °C outside [-40, 60]", ErrBadSpec, s.AmbientC)
	}
	if _, err := fault.ByName(s.FaultPlan, s.Seed); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// nonFinite names the first float field of the spec, or of its TTE
// parameters, that is NaN or ±Inf; "" when all are finite. NaN passes
// every range comparison in Validate. JSON cannot carry either value, so
// only in-process callers such as capman-sim's flags can send one.
func (s JobSpec) nonFinite() string {
	type field struct {
		name string
		v    float64
	}
	fields := []field{
		{"eta", s.Eta}, {"periodS", s.PeriodS}, {"thresholdW", s.ThresholdW},
		{"bigMAh", s.BigMAh}, {"littleMAh", s.LittleMAh}, {"ambientC", s.AmbientC},
		{"dt", s.DT}, {"maxTimeS", s.MaxTimeS},
	}
	if t := s.TTE; t != nil {
		fields = append(fields,
			field{"tte.horizonS", t.HorizonS}, field{"tte.mAh", t.MAh},
			field{"tte.loadNoiseFrac", t.LoadNoiseFrac}, field{"tte.ambientNoiseC", t.AmbientNoiseC},
			field{"tte.noiseTauS", t.NoiseTauS})
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return f.name
		}
	}
	return ""
}

// validateTTE checks a tte-kind spec: raw is the submission as received
// (so sim-only knobs the defaulting step scrubbed can still be rejected),
// s the defaulted form.
func validateTTE(raw, s JobSpec) error {
	if raw.Cycles > 1 {
		return fmt.Errorf("%w: tte jobs are single-sweep; cycles not supported", ErrBadSpec)
	}
	if raw.FaultPlan != "" && raw.FaultPlan != "none" {
		return fmt.Errorf("%w: tte jobs do not support fault plans", ErrBadSpec)
	}
	t := s.TTE
	switch {
	case raw.TTE == nil:
		return fmt.Errorf("%w: tte job missing tte parameters", ErrBadSpec)
	case t.Twins <= 0:
		return fmt.Errorf("%w: tte needs at least one twin, got %d", ErrBadSpec, t.Twins)
	case t.Twins > MaxTTETwins:
		return fmt.Errorf("%w: %d twins exceeds the limit %d", ErrBadSpec, t.Twins, MaxTTETwins)
	case t.HorizonS < 0:
		return fmt.Errorf("%w: negative horizon %v", ErrBadSpec, t.HorizonS)
	case t.HorizonS > MaxTTEHorizonS:
		return fmt.Errorf("%w: horizon %v exceeds the limit %v s", ErrBadSpec, t.HorizonS, float64(MaxTTEHorizonS))
	case t.MAh <= 0:
		return fmt.Errorf("%w: non-positive capacity %v mAh", ErrBadSpec, t.MAh)
	case t.LoadNoiseFrac < 0 || t.AmbientNoiseC < 0:
		return fmt.Errorf("%w: negative noise amplitude", ErrBadSpec)
	case t.NoiseTauS < 0:
		return fmt.Errorf("%w: negative noise correlation time %v", ErrBadSpec, t.NoiseTauS)
	}
	return nil
}

// Canonical returns the defaulted spec's canonical JSON encoding: fixed
// field order (struct order), defaults applied, omitempty dropping unset
// optionals. Two submissions describing the same simulation produce
// identical canonical bytes.
func (s JobSpec) Canonical() ([]byte, error) {
	b, err := json.Marshal(s.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("server: canonicalize spec: %w", err)
	}
	return b, nil
}

// Hash returns the hex SHA-256 of the canonical encoding — the job's
// content address, used as the result-cache key and for single-flight
// coalescing of concurrent identical submissions.
func (s JobSpec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
