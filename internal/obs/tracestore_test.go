package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func testTraceID(i int) TraceID {
	var id TraceID
	id[0] = 0x40
	for b := 0; b < 8; b++ {
		id[15-b] = byte(i >> (8 * b))
	}
	return id
}

// TestTailSamplingDeterministic: the sampler is a pure function of
// (seed, trace ID) — two stores with the same seed keep the identical
// subset of the same ID stream, and a different seed keeps a different
// one.
func TestTailSamplingDeterministic(t *testing.T) {
	const n = 4096
	keep := func(seed uint64) map[int]bool {
		s := NewTraceStore(64, 0.2, seed)
		kept := make(map[int]bool)
		for i := 0; i < n; i++ {
			ok, decision := s.Decide(testTraceID(i), false)
			if ok != (decision == TraceDecisionSampled) {
				t.Fatalf("keep=%v but decision=%q", ok, decision)
			}
			if ok {
				kept[i] = true
			}
		}
		return kept
	}

	a, b := keep(42), keep(42)
	if len(a) != len(b) {
		t.Fatalf("same seed kept %d vs %d traces", len(a), len(b))
	}
	for i := range a {
		if !b[i] {
			t.Fatalf("same seed disagrees on trace %d", i)
		}
	}
	// Rate sanity: 0.2 over 4096 uniform draws lands well inside (0.1, 0.3).
	if got := float64(len(a)) / n; got < 0.1 || got > 0.3 {
		t.Errorf("keep rate %.3f far from configured 0.2", got)
	}

	c := keep(43)
	same := 0
	for i := range a {
		if c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seed kept the identical trace set")
	}
}

// TestSignalTracesAlwaysKept pins the tail sampler's core promise: a
// signal trace (shed, error, SLO breach, fatal
// invariant) is retained regardless of the sampling rate — even 0.
func TestSignalTracesAlwaysKept(t *testing.T) {
	s := NewTraceStore(1024, 0, 1) // rate 0: every healthy trace drops
	for i := 0; i < 512; i++ {
		keep, decision := s.Decide(testTraceID(i), true)
		if !keep || decision != TraceDecisionSignal {
			t.Fatalf("signal trace %d: keep=%v decision=%q", i, keep, decision)
		}
	}
	for i := 512; i < 1024; i++ {
		if keep, _ := s.Decide(testTraceID(i), false); keep {
			t.Fatalf("healthy trace %d kept at rate 0", i)
		}
	}
	st := s.Stats()
	if st.KeptSignal != 512 || st.KeptSampled != 0 || st.Dropped != 512 {
		t.Errorf("stats = %+v, want 512 signal / 0 sampled / 512 dropped", st)
	}

	// And at rate 1 every healthy trace is kept.
	all := NewTraceStore(16, 1, 1)
	for i := 0; i < 64; i++ {
		if keep, d := all.Decide(testTraceID(i), false); !keep || d != TraceDecisionSampled {
			t.Fatalf("rate-1 trace %d: keep=%v decision=%q", i, keep, d)
		}
	}
}

// TestTraceStoreEvictionAccounting hammers Keep from parallel goroutines
// (run under -race) and checks the books: Len+Evicted == Keeps, the ring
// never exceeds its limit, and the retained set is the newest tail.
func TestTraceStoreEvictionAccounting(t *testing.T) {
	const limit, writers, perWriter = 32, 8, 200
	s := NewTraceStore(limit, 1, 7)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := testTraceID(w*perWriter + i)
				s.Decide(id, false)
				s.Keep(&StoredTrace{
					TraceID: id.String(), Outcome: "done",
					Start: time.Unix(int64(i), 0), DurationS: 0.001,
				})
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Len > limit {
		t.Errorf("store holds %d traces, limit %d", st.Len, limit)
	}
	if got := st.Len + int(st.Evicted); got != writers*perWriter {
		t.Errorf("Len(%d)+Evicted(%d) = %d, want %d keeps",
			st.Len, st.Evicted, got, writers*perWriter)
	}
	if st.KeptSampled != writers*perWriter {
		t.Errorf("KeptSampled = %d, want %d", st.KeptSampled, writers*perWriter)
	}

	// Everything Search returns must also Get, and respects the limit.
	found := s.Search(TraceQuery{Limit: limit * 2})
	if len(found) != st.Len {
		t.Errorf("Search returned %d, store says %d", len(found), st.Len)
	}
	for _, tr := range found {
		if _, ok := s.Get(tr.TraceID); !ok {
			t.Errorf("retained trace %s not Gettable", tr.TraceID)
		}
	}
}

// TestTraceStoreReKeep: re-keeping a trace ID refreshes in place without
// consuming a second slot or corrupting eviction accounting.
func TestTraceStoreReKeep(t *testing.T) {
	s := NewTraceStore(8, 1, 1)
	id := testTraceID(1)
	s.Keep(&StoredTrace{TraceID: id.String(), Outcome: "running"})
	s.Keep(&StoredTrace{TraceID: id.String(), Outcome: "done"})
	if got, ok := s.Get(id.String()); !ok || got.Outcome != "done" {
		t.Fatalf("re-keep did not refresh: %+v", got)
	}
	st := s.Stats()
	if st.Len != 1 || st.Evicted != 0 {
		t.Errorf("stats after re-keep = %+v, want Len 1 Evicted 0 (refresh, not a new slot)", st)
	}
}

func TestTraceStoreSearchFilters(t *testing.T) {
	s := NewTraceStore(64, 1, 1)
	for i := 0; i < 10; i++ {
		outcome, kind := "done", "sim"
		if i%2 == 0 {
			outcome, kind = "failed", "tte"
		}
		s.Keep(&StoredTrace{
			TraceID: testTraceID(i).String(), Outcome: outcome, Kind: kind,
			DurationS: float64(i) * 0.1,
		})
	}
	if got := s.Search(TraceQuery{Outcome: "failed"}); len(got) != 5 {
		t.Errorf("outcome filter returned %d, want 5", len(got))
	}
	if got := s.Search(TraceQuery{Kind: "sim"}); len(got) != 5 {
		t.Errorf("kind filter returned %d, want 5", len(got))
	}
	if got := s.Search(TraceQuery{MinDuration: 500 * time.Millisecond}); len(got) != 5 {
		t.Errorf("min-duration filter returned %d, want 5", len(got))
	}
	got := s.Search(TraceQuery{Limit: 3})
	if len(got) != 3 {
		t.Fatalf("limit 3 returned %d", len(got))
	}
	// Newest first.
	if got[0].TraceID != testTraceID(9).String() {
		t.Errorf("first result %s, want newest %s", got[0].TraceID, testTraceID(9))
	}
}

func TestNilTraceStoreSafe(t *testing.T) {
	var s *TraceStore
	if keep, decision := s.Decide(testTraceID(1), true); keep || decision != TraceDecisionDropped {
		t.Errorf("nil store Decide = %v %q", keep, decision)
	}
	s.Keep(&StoredTrace{TraceID: "x"})
	if _, ok := s.Get("x"); ok || s.Search(TraceQuery{}) != nil {
		t.Error("nil store retained something")
	}
}

// BenchmarkTraceUnsampled is the unsampled hot path bench.sh hard-gates
// at 0 allocs/op: deciding the fate of a healthy trace that loses the
// draw must not touch the heap.
func BenchmarkTraceUnsampled(b *testing.B) {
	s := NewTraceStore(64, 0, 1)
	id := NewTraceID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if keep, _ := s.Decide(id, false); keep {
			b.Fatal("rate-0 store kept a healthy trace")
		}
	}
}

func TestTraceStoreStatsString(t *testing.T) {
	// Guard the JSON field names the CLI and /v1/traces stats block rely on.
	st := TraceStoreStats{KeptSignal: 1, KeptSampled: 2, Dropped: 3, Evicted: 4, Len: 5}
	got := fmt.Sprintf("%+v", st)
	for _, want := range []string{"KeptSignal:1", "KeptSampled:2", "Dropped:3", "Evicted:4", "Len:5"} {
		if !contains(got, want) {
			t.Errorf("stats %s missing %s", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
