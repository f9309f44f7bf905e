package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxConns caps the client's request connections at the host's two
// cores; the /v1/stream subscription rides on its own connection.
const maxConns = 2

// view is the part of the daemon's job View the benchmark reads.
type view struct {
	ID          string          `json:"id"`
	Hash        string          `json:"hash"`
	State       string          `json:"state"`
	Error       string          `json:"error"`
	CacheHit    bool            `json:"cacheHit"`
	Outcome     json.RawMessage `json:"outcome"`
	SubmittedAt time.Time       `json:"submittedAt"`
	StartedAt   *time.Time      `json:"startedAt"`
	FinishedAt  *time.Time      `json:"finishedAt"`
	QueueWaitS  float64         `json:"queueWaitS"`
	WallS       float64         `json:"wallS"`
}

func (v *view) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

// client drives one daemon over loopback HTTP.
type client struct {
	http *http.Client
	base string
	// stream follows /v1/stream job frames for completion; nil means
	// poll (the observability-cost replays; see streamMode). Its owner
	// closes it.
	stream *stream
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() {
	c.http.CloseIdleConnections()
}

// exchange is one HTTP round trip's client-side stamps.
type exchange struct {
	sent, headers, body time.Time
}

// call performs one request and reads the whole response body.
func (c *client) call(method, path string, body []byte) (int, []byte, exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var ex exchange
	ex.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, ex, err
	}
	ex.headers = time.Now()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.body = time.Now()
	return resp.StatusCode, b, ex, err
}

// outcome is what one request produced on the client side.
type outcome struct {
	v view
	// hitBody is a response the daemon answered at once (a cache hit),
	// left undecoded for the checker.
	hitBody []byte
	post    exchange
	// For misses: when completion was seen and the outcome fetch.
	completed time.Time
	fetch     exchange
	err       error
}

// held is when the client held the finished outcome.
func (o *outcome) held() time.Time {
	if !o.fetch.body.IsZero() {
		return o.fetch.body
	}
	return o.post.body
}

// submit runs one request to its finished outcome: a cache hit ends with
// the submission's response body; a miss follows the job until
// completion is seen and then fetches the outcome once.
func (c *client) submit(ctx context.Context, r *request) (o outcome) {
	status, b, ex, err := c.call(http.MethodPost, r.path, r.body)
	o.post = ex
	if err != nil {
		o.err = err
		return o
	}
	switch status {
	case http.StatusOK: // served from the cache: the body is the finished outcome
		o.hitBody = b
		return o
	case http.StatusAccepted:
	default:
		o.err = fmt.Errorf("POST %s: status %d: %s", r.path, status, bytes.TrimSpace(b))
		return o
	}
	if err := json.Unmarshal(b, &o.v); err != nil {
		o.err = fmt.Errorf("decode submission view: %w", err)
		return o
	}
	for !o.v.terminal() {
		if err := c.await(ctx, o.v.ID); err != nil {
			o.err = err
			return o
		}
		o.completed = time.Now()
		status, b, ex, err = c.call(http.MethodGet, "/v1/jobs/"+o.v.ID, nil)
		o.fetch = ex
		if err != nil {
			o.err = err
			return o
		}
		if status != http.StatusOK {
			o.err = fmt.Errorf("GET job %s: status %d", o.v.ID, status)
			return o
		}
		o.v = view{}
		if err := json.Unmarshal(b, &o.v); err != nil {
			o.err = fmt.Errorf("decode job view: %w", err)
			return o
		}
	}
	return o
}

// pollInterval paces completion polling against a daemon without a
// stream.
const pollInterval = 2 * time.Millisecond

// await blocks until the job may have finished: its terminal frame was
// seen, or frames were dropped (the caller then fetches and re-checks).
func (c *client) await(ctx context.Context, id string) error {
	if c.stream == nil {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
			return nil
		}
	}
	return c.stream.wait(ctx, id)
}

// stream follows the daemon's /v1/stream job frames. Terminal frames wake
// the goroutine waiting on that job; a gap in the frame sequence (the bus
// drops frames for slow consumers) wakes every waiter so it falls back to
// one GET.
type stream struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	waiters  map[string]chan struct{}
	finished map[string]bool // terminal frames seen before anyone waited
	lastSeq  uint64
	gaps     int
	err      error
}

// followStream subscribes to /v1/stream and returns once the daemon's
// hello frame has arrived, so no later job frame can be missed.
func followStream(base string) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe /v1/stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe /v1/stream: status %d", resp.StatusCode)
	}
	s := &stream{
		cancel: cancel, done: make(chan struct{}),
		waiters: make(map[string]chan struct{}), finished: make(map[string]bool),
	}
	hello := make(chan struct{})
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.read(bufio.NewReader(resp.Body), hello)
	}()
	select {
	case <-hello:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("/v1/stream closed before hello: %v", s.err)
	case <-time.After(10 * time.Second):
		s.close()
		return nil, fmt.Errorf("/v1/stream: no hello after 10s")
	}
}

// read parses Server-Sent Events until the stream ends.
func (s *stream) read(rd *bufio.Reader, hello chan struct{}) {
	var event, id, data string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			s.mu.Lock()
			s.err = err
			s.wakeAll()
			s.mu.Unlock()
			return
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event == "hello" && hello != nil {
				close(hello)
				hello = nil
			} else if id != "" {
				s.frame(event, id, data)
			}
			event, id, data = "", "", ""
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

// frame handles one sequenced event.
func (s *stream) frame(event, id, data string) {
	seq, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastSeq != 0 && seq != s.lastSeq+1 {
		// Frames were dropped (or two publishers raced their sequence
		// numbers); either way a waiter may have missed its frame.
		s.gaps++
		s.wakeAll()
	}
	if seq > s.lastSeq {
		s.lastSeq = seq
	}
	if event != "job" {
		return
	}
	var ev struct {
		Data struct {
			JobID string `json:"jobId"`
			State string `json:"state"`
		} `json:"data"`
	}
	if json.Unmarshal([]byte(data), &ev) != nil {
		return
	}
	switch ev.Data.State {
	case "done", "failed", "cancelled":
	default:
		return
	}
	if ch, ok := s.waiters[ev.Data.JobID]; ok {
		close(ch)
		delete(s.waiters, ev.Data.JobID)
		return
	}
	s.finished[ev.Data.JobID] = true
}

// wakeAll releases every waiter; callers hold s.mu.
func (s *stream) wakeAll() {
	for id, ch := range s.waiters {
		close(ch)
		delete(s.waiters, id)
	}
}

// wait blocks until job id's terminal frame is seen or frames were lost.
func (s *stream) wait(ctx context.Context, id string) error {
	s.mu.Lock()
	if s.finished[id] {
		delete(s.finished, id)
		s.mu.Unlock()
		return nil
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return fmt.Errorf("/v1/stream ended: %w", err)
	}
	ch := make(chan struct{})
	s.waiters[id] = ch
	s.mu.Unlock()
	t := time.NewTimer(frameTimeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		// The frame may have been dropped before this waiter existed, so
		// no later gap would wake it; let the caller check once.
		s.mu.Lock()
		delete(s.waiters, id)
		s.gaps++
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// frameTimeout bounds how long a waiter trusts the stream before it
// checks the job itself; every job the benchmark sends finishes far
// sooner.
const frameTimeout = 5 * time.Second

// fallbacks reports how often dropped or reordered frames forced GETs.
func (s *stream) fallbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gaps
}

func (s *stream) close() {
	s.cancel()
	<-s.done
}
