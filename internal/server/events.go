package server

// Job lifecycle event types: the names of the events on a job's root
// span, and the Type of its "job" frames on /v1/stream.
const (
	EventSubmitted        = "submitted"
	EventQueued           = "queued"
	EventRunning          = "running"
	EventDone             = "done"
	EventFailed           = "failed"
	EventCancelled        = "cancelled"
	EventCacheHit         = "cache-hit"
	EventCoalesced        = "coalesced"
	EventQueueWaitWarning = "queue-wait-warning"
)

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
