package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/server"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlHit        = "hit"
	wlMissCapman = "miss-capman"
	wlMixed      = "mixed"
)

// A run is split into rounds: every round starts a fresh daemon, sets it
// up and replays the workload's request list. Many short rounds average
// out host drift that one long round would absorb whole. roundSeconds is
// the timed length of a round of hit and mixed (mixed's list is
// mixedRate*roundSeconds arrivals); missRoundSeconds is about how long
// miss-capman's missPerRound jobs take on two vCPUs.
const (
	roundSeconds     = 2
	missRoundSeconds = 3
)

// rounds is how many rounds a run of the given length makes, so that the
// run measures about that many seconds.
func (w *workload) rounds(seconds int) int { return max(1, seconds/w.roundS) }

// Per-workload sizing. The list lengths are fixed, never scaled by
// measured speed, so every round does the same work and leaves the daemon
// with the same number of finished jobs (rss_peak_mb depends on it).
const (
	hitKeys        = 32   // primed key space of hit and mixed: fits the 256-entry cache
	hitTTEKeys     = 8    // of which tte cohorts
	hitPerRound    = 8000 // hit: requests per round
	missPerRound   = 100  // miss-capman: jobs per round
	missWarmup     = 16   // miss-capman: distinct warm-up jobs in set-up
	mixedRate      = 100  // mixed: open-loop arrivals per second
	mixedTTEEvery  = 10   // mixed: every tenth arrival is a fresh tte cohort
	cohortTwins    = 32   // twins per tte cohort
	cohortHorizonS = 600  // simulated seconds per tte cohort
)

var (
	profiles     = []string{"Nexus", "Honor", "Lenovo"}
	simWorkloads = []string{"video", "pcmark", "geekbench"}
)

// request is one prepared submission: the spec, its wire body, the
// content address the daemon must answer with, and what the workload
// claims about it.
type request struct {
	spec    server.JobSpec
	path    string // /v1/jobs or /v1/tte
	body    []byte
	hash    string
	wantHit bool // the workload claims a cache hit
}

func (r *request) isTTE() bool { return r.spec.Kind == "tte" }

// workload is one generated traffic mix. keys are primed during set-up,
// warm are distinct jobs run during set-up, and list is replayed, in the
// same order, in every round.
type workload struct {
	name   string
	roundS int     // timed seconds per round
	open   bool    // open loop at rate; closed loop with two clients otherwise
	rate   float64 // arrivals per second (open loop)
	keys   []*request
	warm   []*request
	list   []*request
}

// capmanSpec is a capman-policy discharge sim on a small pack: long
// enough in simulated time for several background refreshes (the first
// runs the similarity index), short enough to cost tens of milliseconds.
func capmanSpec(i int, seed int64) server.JobSpec {
	return server.JobSpec{
		Profile:   profiles[i%len(profiles)],
		Workload:  simWorkloads[(i/len(profiles))%len(simWorkloads)],
		Seed:      seed,
		Policy:    "capman",
		BigMAh:    200,
		LittleMAh: 200,
	}
}

// cohortSpec is a Monte Carlo time-to-empty cohort.
func cohortSpec(i int, seed int64) server.JobSpec {
	return server.JobSpec{
		Kind:     "tte",
		Profile:  profiles[i%len(profiles)],
		Workload: simWorkloads[(i/len(profiles))%len(simWorkloads)],
		Seed:     seed,
		TTE: &server.TTEParams{
			Twins: cohortTwins, HorizonS: cohortHorizonS,
			LoadNoiseFrac: 0.1, AmbientNoiseC: 1,
		},
	}
}

func newRequest(spec server.JobSpec, wantHit bool) (*request, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	path := "/v1/jobs"
	if spec.Kind == "tte" {
		path = "/v1/tte"
	}
	return &request{spec: spec, path: path, body: body, hash: hash, wantHit: wantHit}, nil
}

// seedDrawer hands out job seeds that are distinct across a whole
// workload, so no two generated specs share a content address by chance.
type seedDrawer struct {
	rng  *rand.Rand
	seen map[int64]bool
}

func (d *seedDrawer) draw(n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		s := d.rng.Int63n(1 << 40)
		if !d.seen[s] {
			d.seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// buildWorkload generates the named workload from seed. The same seed
// always gives the same request lists.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	seeds := &seedDrawer{rng: rng, seen: make(map[int64]bool)}
	w := &workload{name: name, roundS: roundSeconds}
	add := func(dst *[]*request, spec server.JobSpec, hit bool) error {
		r, err := newRequest(spec, hit)
		if err != nil {
			return err
		}
		*dst = append(*dst, r)
		return nil
	}
	primeKeys := func() error {
		ks := seeds.draw(hitKeys)
		for i, s := range ks {
			spec := capmanSpec(i, s)
			if i >= hitKeys-hitTTEKeys {
				spec = cohortSpec(i, s)
			}
			if err := add(&w.keys, spec, true); err != nil {
				return err
			}
		}
		return nil
	}
	switch name {
	case wlHit:
		if err := primeKeys(); err != nil {
			return nil, err
		}
		n := hitPerRound
		order := rng.Perm(n)
		for _, k := range order {
			w.list = append(w.list, w.keys[k%hitKeys])
		}
	case wlMissCapman:
		w.roundS = missRoundSeconds
		n := missPerRound
		ss := seeds.draw(missWarmup + n)
		for i, s := range ss {
			dst := &w.list
			if i < missWarmup {
				dst = &w.warm
			}
			if err := add(dst, capmanSpec(i, s), false); err != nil {
				return nil, err
			}
		}
	case wlMixed:
		if err := primeKeys(); err != nil {
			return nil, err
		}
		w.open, w.rate = true, mixedRate
		n := mixedRate * roundSeconds
		ss := seeds.draw(n/mixedTTEEvery + 1)
		for i := 0; i < n; i++ {
			if i%mixedTTEEvery == mixedTTEEvery/2 {
				if err := add(&w.list, cohortSpec(i/mixedTTEEvery, ss[i/mixedTTEEvery]), false); err != nil {
					return nil, err
				}
				continue
			}
			w.list = append(w.list, w.keys[rng.Intn(hitKeys)])
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlHit, wlMissCapman, wlMixed)
	}
	if len(w.list) == 0 {
		return nil, fmt.Errorf("workload %s: empty request list", name)
	}
	return w, nil
}
