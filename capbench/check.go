package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/sim"
	"repro/internal/twin"
)

// checker verifies every finished request and accumulates the phase's
// outcome digest and work counts. Safe for concurrent use.
type checker struct {
	mu       sync.Mutex
	known    map[string]verified // content hash -> verified outcome, kept across phases
	answered map[string]bool     // hashes answered in this phase
	work     work
	failures []string
}

// verified is one outcome that passed the checks: its exact bytes, so
// later answers for the same spec are compared byte for byte, and the
// digest of its deterministic part.
type verified struct {
	raw    []byte
	digest [32]byte
}

// work is the phase's deterministic work fingerprint, taken from the
// outcomes of jobs the phase ran (cache hits run nothing).
type work struct {
	Results   int `json:"results"`
	Jobs      int `json:"jobs"`
	SimSteps  int `json:"sim_steps"`
	TwinSteps int `json:"twin_steps"`
	// From the daemon's /metrics over the timed phase.
	Decisions int `json:"decisions"`
	EMDSolves int `json:"emd_solves"`
}

func newChecker() *checker {
	return &checker{known: make(map[string]verified), answered: make(map[string]bool)}
}

// next starts a checker for the following phase that already knows every
// outcome this one verified.
func (ck *checker) next() *checker {
	n := newChecker()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for h, v := range ck.known {
		n.known[h] = v
	}
	return n
}

// maxFailureNotes bounds how many failure descriptions a phase keeps.
const maxFailureNotes = 5

// verify checks one request's outcome and reports whether it passed.
func (ck *checker) verify(r *request, o *outcome) bool {
	err := o.err
	if err == nil && o.hitBody != nil {
		err = ck.verifyHit(r, o)
	}
	if err == nil {
		err = ck.verifyView(r, &o.v)
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err != nil {
		if len(ck.failures) < maxFailureNotes {
			ck.failures = append(ck.failures, err.Error())
		}
		return false
	}
	ck.answered[r.hash] = true
	ck.work.Results++
	return true
}

// verifyHit checks a response the daemon answered at once (a cache hit).
// When the spec's outcome is already verified, the body must carry the
// spec's hash, a done state, the claimed cacheHit and exactly those
// outcome bytes, which costs a few substring searches instead of a JSON
// decode. Otherwise the body is decoded for verifyView.
func (ck *checker) verifyHit(r *request, o *outcome) error {
	ck.mu.Lock()
	known, ok := ck.known[r.hash]
	ck.mu.Unlock()
	if !ok {
		if err := json.Unmarshal(o.hitBody, &o.v); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		o.hitBody = nil
		return nil
	}
	if err := matchHit(o.hitBody, r, known.raw); err != nil {
		return err
	}
	o.v = view{State: "done", Hash: r.hash, CacheHit: r.wantHit, Outcome: known.raw}
	o.hitBody = nil
	return nil
}

// matchHit checks a cache-hit body against the spec and its verified
// outcome bytes.
func matchHit(body []byte, r *request, outcome []byte) error {
	for _, want := range [][]byte{
		[]byte(`"hash":"` + r.hash + `"`),
		[]byte(`"state":"done"`),
		[]byte(`"cacheHit":` + strconv.FormatBool(r.wantHit)),
	} {
		if !bytes.Contains(body, want) {
			return fmt.Errorf("%.12s: response lacks %s", r.hash, want)
		}
	}
	if !bytes.Contains(body, append([]byte(`"outcome":`), outcome...)) {
		return fmt.Errorf("%.12s: outcome differs from the verified one", r.hash)
	}
	return nil
}

func (ck *checker) verifyView(r *request, v *view) error {
	switch {
	case v.State != "done":
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	case v.Hash != r.hash:
		return fmt.Errorf("hash %.12s, want JobSpec.Hash() %.12s", v.Hash, r.hash)
	case v.CacheHit != r.wantHit:
		return fmt.Errorf("%.12s: cacheHit %v, workload claims %v", r.hash, v.CacheHit, r.wantHit)
	}
	ck.mu.Lock()
	known, ok := ck.known[r.hash]
	ck.mu.Unlock()
	if ok {
		if !bytes.Equal(known.raw, v.Outcome) {
			return fmt.Errorf("%.12s: outcome differs from the verified one", r.hash)
		}
		return nil
	}
	digest, steps, err := verifyOutcome(r, v.Outcome)
	if err != nil {
		return fmt.Errorf("%.12s: %w", r.hash, err)
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.known[r.hash] = verified{raw: v.Outcome, digest: digest}
	if !v.CacheHit {
		ck.work.Jobs++
		if r.isTTE() {
			ck.work.TwinSteps += steps
		} else {
			ck.work.SimSteps += steps
		}
	}
	return nil
}

// verifyOutcome checks an outcome against its spec and digests its
// deterministic part (a sim's host-side Timing is wall-clock and left out).
// steps is the sim's step count, or twins × steps for a cohort.
func verifyOutcome(r *request, raw json.RawMessage) (digest [32]byte, steps int, err error) {
	var out struct {
		Run *sim.Result   `json:"run"`
		TTE *twin.Summary `json:"tte"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return digest, 0, fmt.Errorf("decode outcome: %w", err)
	}
	switch {
	case r.isTTE():
		if out.TTE == nil {
			return digest, 0, fmt.Errorf("tte job without a tte outcome")
		}
		if out.TTE.Twins != r.spec.TTE.Twins {
			return digest, 0, fmt.Errorf("cohort of %d twins, requested %d", out.TTE.Twins, r.spec.TTE.Twins)
		}
		steps = out.TTE.Twins * out.TTE.Steps
	default:
		if out.Run == nil {
			return digest, 0, fmt.Errorf("sim job without a run outcome")
		}
		if out.Run.Steps <= 0 || out.Run.EndReason == "" {
			return digest, 0, fmt.Errorf("sim outcome with %d steps, end reason %q", out.Run.Steps, out.Run.EndReason)
		}
		out.Run.Timing = nil
		steps = out.Run.Steps
	}
	b, err := json.Marshal(out)
	if err != nil {
		return digest, 0, err
	}
	return sha256.Sum256(b), steps, nil
}

// digest is the hex SHA-256 over the outcomes answered in this phase,
// sorted by content hash; identical inputs on deterministic engines give
// identical digests.
func (ck *checker) digest() string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	hashes := make([]string, 0, len(ck.answered))
	for h := range ck.answered {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	d := sha256.New()
	for _, h := range hashes {
		v := ck.known[h]
		d.Write([]byte(h))
		d.Write(v.digest[:])
	}
	return hex.EncodeToString(d.Sum(nil))
}
