package server

import (
	"encoding/hex"
	"errors"
	"math"
	"testing"
)

// canonSpecs is the corpus for the encoder-vs-oracle differential tests:
// default specs, every field exercised, floats in both printf regimes,
// strings needing JSON escapes, invalid UTF-8, and tte-kind specs with
// and without parameter blocks.
func canonSpecs() []JobSpec {
	return []JobSpec{
		{},
		{Kind: "sim"},
		{Workload: "video", Policy: "capman"},
		{Workload: "video", Policy: "dual", Seed: 7, BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000},
		{Profile: "Honor", Workload: "pcmark", Policy: "threshold", ThresholdW: 1.5},
		{Workload: "eta", Eta: 0.625, PeriodS: 12.5, Seed: -3},
		{Workload: "onoff", PeriodS: 1e-7},          // 'e' format below 1e-6
		{Workload: "video", MaxTimeS: 1.5e21},       // 'e' format at/above 1e21
		{Workload: "video", Eta: 2.5e-9},            // exponent cleanup e-09 -> e-9
		{Workload: "video", BigMAh: 1e21},           // boundary: exactly 1e21
		{Workload: "video", LittleMAh: 0.000001},    // boundary: exactly 1e-6
		{Workload: "video", AmbientC: -12.75},       // negative float
		{Workload: "video", DT: 0.3333333333333333}, // long shortest-form mantissa
		{Workload: "video", DisableTEC: true, Cycles: 3, FaultPlan: "chaos"},
		{Workload: "video", FaultPlan: "none"},
		{Profile: "a\"b\\c", Workload: "tab\there"},
		{Profile: "<script>&amp;", Workload: "line\nbreak\r"},
		{Profile: "ctrl\x01\x1f", Workload: "sep and "},
		{Profile: "back\bspace", Workload: "form\ffeed"},
		{Profile: "bad\xffutf8", Workload: "ok\xc3\x28"},
		{Profile: "héllo wörld", Workload: "日本語"},
		{Kind: "tte", Workload: "video"},
		{Kind: "tte", Workload: "video", TTE: &TTEParams{Twins: 16, HorizonS: 600}},
		{Kind: "tte", Seed: 99, TTE: &TTEParams{
			Twins: 64, HorizonS: 3600, Chemistry: "LMO", MAh: 1800,
			LoadNoiseFrac: 0.05, AmbientNoiseC: 1.5, NoiseTauS: 30,
		}},
		{Kind: "tte", TTE: &TTEParams{Twins: 1, Chemistry: "b\xfdad"}},
		// Sim-only knobs on a tte spec: the defaulting step zeroes them.
		{Kind: "tte", Policy: "capman", BigMAh: 5000, FaultPlan: "chaos",
			TTE: &TTEParams{Twins: 8}},
	}
}

// TestAppendCanonicalMatchesOracle pins the hand-rolled zero-alloc
// encoder to the json.Marshal oracle, byte for byte, across the corpus.
// Any divergence would split one job across two cache keys.
func TestAppendCanonicalMatchesOracle(t *testing.T) {
	for i, spec := range canonSpecs() {
		want, err := spec.Canonical()
		if err != nil {
			t.Fatalf("spec %d: oracle failed: %v", i, err)
		}
		norm, tte, isTTE := spec.normalized()
		got, ok := appendCanonical(nil, norm, tte, isTTE)
		if !ok {
			t.Fatalf("spec %d: appendCanonical bailed on an oracle-encodable spec", i)
		}
		if string(got) != string(want) {
			t.Errorf("spec %d: encoding diverged\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestSpecKeyMatchesHash pins specKey (pooled buffer + stack hash) to the
// string-returning Hash oracle.
func TestSpecKeyMatchesHash(t *testing.T) {
	for i, spec := range canonSpecs() {
		want, err := spec.Hash()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		key, ok := specKey(spec)
		if !ok {
			t.Fatalf("spec %d: specKey bailed", i)
		}
		if got := hex.EncodeToString(key[:]); got != want {
			t.Errorf("spec %d: specKey %s, Hash %s", i, got, want)
		}
	}
}

// TestSpecKeyRejectsNonFinite: the encoder must refuse exactly what the
// oracle refuses — non-finite floats — instead of silently minting a key,
// and Submit turns the refusal into ErrBadSpec.
func TestSpecKeyRejectsNonFinite(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	bad := []JobSpec{
		{Workload: "video", Eta: math.NaN()},
		{Workload: "video", MaxTimeS: math.Inf(1)},
		{Workload: "video", AmbientC: math.Inf(-1)},
		{Kind: "tte", TTE: &TTEParams{Twins: 4, HorizonS: math.NaN()}},
	}
	for i, spec := range bad {
		if _, ok := specKey(spec); ok {
			t.Errorf("spec %d: specKey accepted a non-finite float", i)
		}
		if _, err := spec.Canonical(); err == nil {
			t.Errorf("spec %d: oracle accepted a non-finite float (corpus bug)", i)
		}
		if _, err := e.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %d: Submit err %v, want ErrBadSpec", i, err)
		}
	}
}

// TestSpecKeyAllocFree guards the tentpole claim: steady-state key
// computation allocates nothing (pooled canonical buffer, stack SHA-256).
func TestSpecKeyAllocFree(t *testing.T) {
	spec := JobSpec{Workload: "video", Policy: "dual", Seed: 7,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000}
	specKey(spec) // warm the pool
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := specKey(spec); !ok {
			t.Fatal("specKey bailed")
		}
	}); avg != 0 {
		t.Errorf("specKey allocates %.1f objects per call, want 0", avg)
	}

	tteSpec := JobSpec{Kind: "tte", Workload: "video",
		TTE: &TTEParams{Twins: 16, HorizonS: 600}}
	specKey(tteSpec)
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := specKey(tteSpec); !ok {
			t.Fatal("specKey bailed")
		}
	}); avg != 0 {
		t.Errorf("specKey (tte) allocates %.1f objects per call, want 0", avg)
	}
}
