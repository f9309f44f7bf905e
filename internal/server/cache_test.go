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

// refLRU is a deliberately naive reference LRU used to pin the sharded
// cache's per-shard semantics: a recency slice and a map, nothing shared
// with the production implementation.
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

// TestShardedCacheMatchesReferencePerShard replays one deterministic
// mixed get/put trace against the sharded cache and a per-shard fleet of
// reference LRUs (routed by the same shard-selection function), checking
// every hit/miss verdict, the surviving contents, and per-shard eviction
// counts. This is the semantics pin for the shard rewrite.
func TestShardedCacheMatchesReferencePerShard(t *testing.T) {
	const capacity, shards, keySpace, ops = 64, 8, 256, 4096
	c := NewShardedCache(capacity, shards)
	if len(c.shards) != shards {
		t.Fatalf("shard count %d, want %d", len(c.shards), shards)
	}
	refs := make([]*refLRU, shards)
	for i, s := range c.shards {
		refs[i] = newRefLRU(s.capacity)
	}
	route := func(key CacheKey) *refLRU {
		idx := uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24
		return refs[idx&c.mask]
	}
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
			route(key).put(key, out)
			continue
		}
		gotEnt, gotOK := c.lookup(key)
		wantOut, wantOK := route(key).get(key)
		if gotOK != wantOK {
			t.Fatalf("op %d: lookup(%x) = %v, reference %v", op, key[:4], gotOK, wantOK)
		}
		if gotOK && gotEnt.outcome != wantOut {
			t.Fatalf("op %d: lookup(%x) returned wrong outcome pointer", op, key[:4])
		}
	}
	var wantLen int
	var wantEvictions uint64
	for i, ref := range refs {
		wantLen += len(ref.values)
		wantEvictions += ref.evictions
		if got := c.shards[i].evictions; got != ref.evictions {
			t.Errorf("shard %d evictions = %d, reference %d", i, got, ref.evictions)
		}
		for key := range ref.values {
			if _, ok := c.shards[i].entries[key]; !ok {
				t.Errorf("shard %d lost key %x still present in reference", i, key[:4])
			}
		}
	}
	if c.Len() != wantLen {
		t.Errorf("Len() = %d, reference %d", c.Len(), wantLen)
	}
	if c.Evictions() != wantEvictions {
		t.Errorf("Evictions() = %d, reference %d", c.Evictions(), wantEvictions)
	}
}

// TestShardedCacheEvictionTotalsMatchSingleLock drives the same
// deterministic insert trace through a single-shard cache (the exact
// pre-shard implementation semantics) and an 8-way sharded one. With
// every shard pushed well past its slice of the capacity, aggregate
// eviction counts and sizes must be bit-identical: inserts − capacity.
func TestShardedCacheEvictionTotalsMatchSingleLock(t *testing.T) {
	const capacity, inserts = 64, 2048
	single := NewShardedCache(capacity, 1)
	sharded := NewShardedCache(capacity, 8)
	out := &Outcome{}
	for i := 0; i < inserts; i++ {
		key := traceKey(i)
		single.put(&cacheEntry{key: key, outcome: out})
		sharded.put(&cacheEntry{key: key, outcome: out})
	}
	if single.Len() != capacity || sharded.Len() != capacity {
		t.Errorf("Len single=%d sharded=%d, want both %d", single.Len(), sharded.Len(), capacity)
	}
	want := uint64(inserts - capacity)
	if got := single.Evictions(); got != want {
		t.Errorf("single-lock evictions = %d, want %d", got, want)
	}
	if got := sharded.Evictions(); got != want {
		t.Errorf("sharded evictions = %d, want %d (not bit-identical to single lock)", got, want)
	}
}

// TestShardedCacheCapacitySplit checks the constructor's carving rules:
// capacities distribute exactly, tiny capacities shrink the shard count
// rather than strand zero-capacity shards, and non-power-of-two requests
// round up.
func TestShardedCacheCapacitySplit(t *testing.T) {
	cases := []struct {
		capacity, shards, wantShards, wantCap int
	}{
		{256, 16, 16, 256},
		{10, 4, 4, 10},
		{3, 16, 2, 3},
		{1, 8, 1, 1},
		{100, 3, 4, 100},
		{-1, 4, 4, 0},
	}
	for _, tc := range cases {
		c := NewShardedCache(tc.capacity, tc.shards)
		if len(c.shards) != tc.wantShards {
			t.Errorf("NewShardedCache(%d, %d): %d shards, want %d",
				tc.capacity, tc.shards, len(c.shards), tc.wantShards)
		}
		total := 0
		for _, s := range c.shards {
			if tc.capacity > 0 && s.capacity <= 0 {
				t.Errorf("NewShardedCache(%d, %d): zero-capacity shard", tc.capacity, tc.shards)
			}
			if s.capacity > 0 {
				total += s.capacity
			}
		}
		if tc.capacity > 0 && total != tc.wantCap {
			t.Errorf("NewShardedCache(%d, %d): total capacity %d, want %d",
				tc.capacity, tc.shards, total, tc.wantCap)
		}
	}
}

// TestShardedCacheConcurrent hammers every operation class — hit, miss,
// insert-with-evict, flight set/clear — from many goroutines at once.
// It asserts only invariants (the race detector does the heavy lifting
// under check.sh's -race run): lookups never return nil outcomes, and
// the cache never exceeds capacity once the dust settles.
func TestShardedCacheConcurrent(t *testing.T) {
	const capacity, workers, opsEach = 32, 8, 2000
	c := NewShardedCache(capacity, 8)
	out := &Outcome{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				key := traceKey(rng.Intn(128))
				switch rng.Intn(4) {
				case 0:
					c.put(&cacheEntry{key: key, outcome: out})
				case 1:
					if ent, ok := c.lookup(key); ok && ent.outcome == nil {
						t.Error("lookup returned entry with nil outcome")
						return
					}
				case 2:
					job := &Job{key: key}
					c.setFlight(key, job)
					c.clearFlight(key, job)
				default:
					_, _ = c.flight(key)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := c.Len(); got > capacity {
		t.Errorf("cache holds %d entries, capacity %d", got, capacity)
	}
}

// TestConcurrentSubmissionsAcrossShards holds several distinct specs
// in-flight simultaneously (their keys landing on different shards) and
// checks single-flight still coalesces per key: every spec runs exactly
// once no matter how many submissions raced onto it.
func TestConcurrentSubmissionsAcrossShards(t *testing.T) {
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
