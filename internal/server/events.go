package server

import "time"

// Event is one entry in a job's lifecycle timeline, rendered from an
// event on the job's root span (bounded by obs.DefaultSpanEvents). Seq
// increases monotonically per job and keeps counting across drops, so
// readers can both order events and detect gaps.
type Event struct {
	Seq    int       `json:"seq"`
	At     time.Time `json:"at"`
	Type   string    `json:"type"`
	Detail string    `json:"detail,omitempty"`
}

// Event types recorded in job timelines.
const (
	EventSubmitted        = "submitted"
	EventQueued           = "queued"
	EventRunning          = "running"
	EventRetrying         = "retrying"
	EventDone             = "done"
	EventFailed           = "failed"
	EventCancelled        = "cancelled"
	EventCacheHit         = "cache-hit"
	EventCoalesced        = "coalesced"
	EventQueueWaitWarning = "queue-wait-warning"
)

// Timeline is the payload of GET /v1/jobs/{id}/events: the job's ordered
// lifecycle events plus how many older events the bound evicted.
type Timeline struct {
	ID        string  `json:"id"`
	RequestID string  `json:"requestId"`
	State     State   `json:"state"`
	Events    []Event `json:"events"`
	Dropped   int     `json:"dropped,omitempty"`
}

// JobStreamEvent is the payload of "job" events on /v1/stream: one job
// lifecycle transition, mirroring the event recorded on the job's root
// span.
type JobStreamEvent struct {
	JobID     string `json:"jobId"`
	RequestID string `json:"requestId"`
	State     State  `json:"state"`
	Type      string `json:"type"`
	Detail    string `json:"detail,omitempty"`
}
