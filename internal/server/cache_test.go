package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refLRU is a deliberately naive reference LRU used to pin the cache's
// semantics: a recency slice and a map, nothing shared with the
// production implementation.
type refLRU struct {
	capacity  int
	order     []CacheKey // index 0 = most recently used
	values    map[CacheKey]*Outcome
	evictions uint64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, values: make(map[CacheKey]*Outcome)}
}

func (r *refLRU) touch(key CacheKey) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.order = append([]CacheKey{key}, r.order...)
}

func (r *refLRU) get(key CacheKey) (*Outcome, bool) {
	out, ok := r.values[key]
	if ok {
		r.touch(key)
	}
	return out, ok
}

func (r *refLRU) put(key CacheKey, out *Outcome) {
	if r.capacity <= 0 || out == nil {
		return
	}
	if _, ok := r.values[key]; ok {
		r.values[key] = out
		r.touch(key)
		return
	}
	r.values[key] = out
	r.order = append([]CacheKey{key}, r.order...)
	for len(r.order) > r.capacity {
		oldest := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		delete(r.values, oldest)
		r.evictions++
	}
}

func traceKey(i int) CacheKey {
	var k CacheKey
	binary.LittleEndian.PutUint64(k[:], uint64(i)*0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(k[8:], uint64(i))
	return k
}

// TestCacheMatchesReference replays one deterministic mixed get/put trace
// against the cache and a reference LRU of the same capacity, checking
// every hit/miss verdict, the surviving keys, and the eviction count.
func TestCacheMatchesReference(t *testing.T) {
	const capacity, keySpace, ops = 64, 256, 4096
	c := NewCache(capacity)
	ref := newRefLRU(capacity)
	outcomes := make(map[CacheKey]*Outcome)
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < ops; op++ {
		key := traceKey(rng.Intn(keySpace))
		if rng.Intn(3) == 0 {
			out, ok := outcomes[key]
			if !ok {
				out = &Outcome{}
				outcomes[key] = out
			}
			c.put(&cacheEntry{key: key, outcome: out})
			ref.put(key, out)
			continue
		}
		gotEnt, gotOK := c.lookup(key)
		wantOut, wantOK := ref.get(key)
		if gotOK != wantOK {
			t.Fatalf("op %d: lookup(%x) = %v, reference %v", op, key[:4], gotOK, wantOK)
		}
		if gotOK && gotEnt.outcome != wantOut {
			t.Fatalf("op %d: lookup(%x) returned wrong outcome pointer", op, key[:4])
		}
	}
	for key := range ref.values {
		if _, ok := c.entries[key]; !ok {
			t.Errorf("cache lost key %x still present in reference", key[:4])
		}
	}
	if got := c.order.Len(); got != len(ref.values) {
		t.Errorf("cache holds %d entries, reference %d", got, len(ref.values))
	}
	if c.evictions != ref.evictions {
		t.Errorf("evictions = %d, reference %d", c.evictions, ref.evictions)
	}
}

// TestCacheConcurrent hammers hits, misses and inserts-with-evict from
// many goroutines at once. It asserts only invariants (the race detector
// does the heavy lifting under check.sh's -race run): lookups never
// return nil outcomes, and the cache never exceeds capacity once the dust
// settles.
func TestCacheConcurrent(t *testing.T) {
	const capacity, workers, opsEach = 32, 8, 2000
	c := NewCache(capacity)
	out := &Outcome{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				key := traceKey(rng.Intn(128))
				if rng.Intn(2) == 0 {
					c.put(&cacheEntry{key: key, outcome: out})
				} else if ent, ok := c.lookup(key); ok && ent.outcome == nil {
					t.Error("lookup returned entry with nil outcome")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := c.order.Len(); got > capacity {
		t.Errorf("cache holds %d entries, capacity %d", got, capacity)
	}
}

// TestCacheHoldsItsCapacity: an executor whose cache holds N outcomes
// keeps every one of N distinct finished specs, so each resubmission is a
// hit and nothing was evicted.
func TestCacheHoldsItsCapacity(t *testing.T) {
	for _, n := range []int{16, 256} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e := newTestExecutor(t, ExecutorConfig{Workers: 2, QueueDepth: n, CacheSize: n})
			e.runFn = func(context.Context, runner) (*Outcome, error) { return &Outcome{}, nil }
			specs := make([]JobSpec, n)
			for i := range specs {
				specs[i] = JobSpec{Workload: "video", Policy: "dual", Seed: int64(i)}
				v, err := e.Submit(specs[i])
				if err != nil {
					t.Fatal(err)
				}
				awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
			}
			for i, spec := range specs {
				v, err := e.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !v.CacheHit {
					t.Errorf("spec %d of %d missed the cache after all %d finished", i, n, n)
				}
			}
			if e.cache.evictions != 0 {
				t.Errorf("cache of %d evicted %d outcomes of %d distinct specs", n, e.cache.evictions, n)
			}
		})
	}
}

// TestConcurrentSubmissionsCoalesce holds several distinct specs in
// flight simultaneously and races duplicate submissions onto each: the
// flights table must coalesce per key, so every spec runs exactly once no
// matter how many submissions raced onto it.
func TestConcurrentSubmissionsCoalesce(t *testing.T) {
	const distinct, dupes = 6, 4
	var runs atomic.Int64
	release := make(chan struct{})
	e := newTestExecutor(t, ExecutorConfig{Workers: distinct, QueueDepth: 64})
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		runs.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Outcome{}, nil
	}

	specs := make([]JobSpec, distinct)
	firstIDs := make([]string, distinct)
	for i := range specs {
		specs[i] = JobSpec{Workload: "video", Policy: "dual", Seed: int64(1000 + i)}
		v, err := e.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		firstIDs[i] = v.ID
	}
	// Wait until every job is actually running so resubmissions coalesce
	// rather than racing the queue handoff.
	deadline := time.Now().Add(10 * time.Second)
	for {
		running := 0
		for _, id := range firstIDs {
			if v, err := e.Get(id); err == nil && v.State == StateRunning {
				running++
			}
		}
		if running == distinct {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs running", running, distinct)
		}
		time.Sleep(2 * time.Millisecond)
	}

	var wg sync.WaitGroup
	errs := make(chan error, distinct*dupes)
	for i := 0; i < distinct; i++ {
		for d := 0; d < dupes; d++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := e.Submit(specs[i])
				if err != nil {
					errs <- err
					return
				}
				if v.ID != firstIDs[i] {
					errs <- fmt.Errorf("spec %d coalesced onto %q, want %q", i, v.ID, firstIDs[i])
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	close(release)
	for _, id := range firstIDs {
		awaitExec(t, e, id, func(v View) bool { return v.State.Terminal() }, "terminal")
	}
	if got := runs.Load(); got != distinct {
		t.Errorf("run function executed %d times, want %d (single flight broken)", got, distinct)
	}
}
