package tsdb

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event types published on the Bus. Producers may add their own; these
// are the ones capmand emits on /v1/stream.
const (
	EventSample    = "sample"    // one telemetry snapshot (server-curated payload)
	EventJob       = "job"       // a job lifecycle transition
	EventDegrade   = "degrade"   // a guard degradation streamed from a running sim
	EventInvariant = "invariant" // a safety-invariant violation
	EventAlert     = "alert"     // an anomaly-engine alert
	EventTrace     = "trace"     // a retained request record (a finished job, a refusal, a traced hit)
)

// Event is one entry on the live ops stream.
type Event struct {
	Seq  uint64    `json:"seq"`
	Type string    `json:"type"`
	At   time.Time `json:"at"`
	Data any       `json:"data,omitempty"`
}

// Bus fans events out to subscribers with bounded per-subscriber
// buffers. Publish never blocks: a subscriber that cannot keep up has
// events dropped (and counted on that subscriber), because a stalled
// dashboard must never backpressure the serving path.
type Bus struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	closed bool
	seq    atomic.Uint64
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscriber]struct{})}
}

// Subscriber is one bounded event consumer.
type Subscriber struct {
	ch      chan Event
	dropped atomic.Uint64
}

// C is the subscriber's event channel. It is closed by Unsubscribe.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Dropped reports how many events this subscriber lost to a full buffer.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Subscribe registers a consumer with the given buffer (default 256).
// Subscribing to a closed bus returns a subscriber whose channel is
// already closed.
func (b *Bus) Subscribe(buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscriber{ch: make(chan Event, buffer)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Unsubscribe removes the consumer and closes its channel. Idempotent.
func (b *Bus) Unsubscribe(s *Subscriber) {
	b.mu.Lock()
	_, ok := b.subs[s]
	delete(b.subs, s)
	b.mu.Unlock()
	if ok {
		close(s.ch)
	}
}

// Close closes every subscriber channel and rejects future publishes.
// Streaming handlers blocked on their channel unblock and return, which
// lets an HTTP server's graceful shutdown complete even with dashboards
// attached. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
}

// Subscribers reports the current consumer count; producers of expensive
// payloads (the per-tick sample snapshot) skip work when it is zero.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Publish stamps the event with a sequence number and delivers it to
// every subscriber whose buffer has room, dropping (and counting) it for
// the rest.
func (b *Bus) Publish(typ string, at time.Time, data any) {
	ev := Event{Seq: b.seq.Add(1), Type: typ, At: at, Data: data}
	b.mu.Lock()
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}
