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

// TestTraceStoreEvictionAccounting hammers Keep from parallel goroutines
// (run under -race) and checks the books: Len+Evicted == Keeps, the ring
// never exceeds its limit, and everything Search returns also Gets.
func TestTraceStoreEvictionAccounting(t *testing.T) {
	const limit, writers, perWriter = 32, 8, 200
	s := NewTraceStore(limit)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := testTraceID(w*perWriter + i)
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

// TestTraceStoreKeepsRecordsSharingAnID: two records under one trace ID
// (two submissions under one traceparent) each take a slot; Get answers
// the newest, Search lists both, and eviction drops the oldest first.
func TestTraceStoreKeepsRecordsSharingAnID(t *testing.T) {
	s := NewTraceStore(2)
	id := testTraceID(1).String()
	s.Keep(&StoredTrace{TraceID: id, Outcome: "shed"})
	s.Keep(&StoredTrace{TraceID: id, Outcome: "done"})
	if got, ok := s.Get(id); !ok || got.Outcome != "done" {
		t.Fatalf("Get = %+v, want the newest record (done)", got)
	}
	if got := s.Search(TraceQuery{}); len(got) != 2 || got[0].Outcome != "done" || got[1].Outcome != "shed" {
		t.Fatalf("Search returned %d records, want both, newest first", len(got))
	}
	s.Keep(&StoredTrace{TraceID: testTraceID(2).String(), Outcome: "done"})
	if got := s.Search(TraceQuery{Outcome: "shed"}); len(got) != 0 {
		t.Errorf("oldest record survived a full store's next Keep")
	}
	if st := s.Stats(); st.Len != 2 || st.Evicted != 1 {
		t.Errorf("stats = %+v, want Len 2 Evicted 1", st)
	}
}

func TestTraceStoreSearchFilters(t *testing.T) {
	s := NewTraceStore(64)
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
	s.Keep(&StoredTrace{TraceID: "x"})
	if _, ok := s.Get("x"); ok || s.Search(TraceQuery{}) != nil || s.Stats() != (TraceStoreStats{}) {
		t.Error("nil store retained something")
	}
}

func TestTraceStoreStatsString(t *testing.T) {
	// Guard the JSON field names the CLI and /v1/traces stats block rely on.
	st := TraceStoreStats{Evicted: 4, Len: 5}
	got := fmt.Sprintf("%+v", st)
	for _, want := range []string{"Evicted:4", "Len:5"} {
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
