package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"defectsim/internal/obs"
)

// outcome is one request as the client saw it.
type outcome struct {
	e   entry
	rid string
	// hit is the result's cache_hit flag.
	hit bool
	out outputs
	// report is the run report the server returned with the result: the
	// job's stage tree with each stage's duration and allocation.
	report *obs.Report
	// latency runs from the submit until the whole result body arrived;
	// cpu is the CPU time the whole process (client and server, every
	// thread) spent in that interval. With one request in flight at a
	// time, that is the request's cost.
	latency, cpu time.Duration
	// submit and result are the two HTTP calls' durations; queueWait and
	// run split the job's life by its queued, running and terminal
	// events.
	submit, result, queueWait, run time.Duration
	resultBytes                    int
	err                            error
}

type jobEvent struct {
	Seq  int64  `json:"seq"`
	Time string `json:"time"`
	Type string `json:"type"`
}

type pollResponse struct {
	Events   []jobEvent `json:"events"`
	Terminal bool       `json:"terminal"`
}

type resultBody struct {
	CacheHit bool        `json:"cache_hit"`
	Report   *obs.Report `json:"report"`
	outputs
}

// send runs one request: submit, long-poll the job's events until it is
// terminal, fetch the result. With a tracer, each HTTP call is a span
// under a root span for the request.
func (s *server) send(ctx context.Context, tr *tracer, e entry, rid string) outcome {
	o := outcome{e: e, rid: rid}
	root := tr.start(0, "request", rid)
	defer tr.end(root)
	t0, c0 := time.Now(), processCPU()

	sp := tr.start(root, "http.submit", rid)
	status, body, err := s.call(ctx, http.MethodPost, "/v1/pipeline", rid, e.body())
	tr.end(sp)
	o.submit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	var sub struct {
		ID string `json:"id"`
	}
	switch status {
	case http.StatusAccepted:
	case http.StatusOK:
		o.err = fmt.Errorf("submission coalesced onto an existing job: %s", body)
		return o
	case http.StatusTooManyRequests:
		o.err = fmt.Errorf("submission shed: %s", body)
		return o
	default:
		o.err = fmt.Errorf("submit: status %d: %s", status, body)
		return o
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		o.err = fmt.Errorf("submit response: %w", err)
		return o
	}

	var since int64
	var queued, running, terminal time.Time
	state := ""
	for state == "" {
		sp := tr.start(root, "http.poll", rid)
		path := fmt.Sprintf("/v1/pipeline/%s/events?poll=1&since=%d&wait_ms=20000", sub.ID, since)
		status, body, err := s.call(ctx, http.MethodGet, path, rid, nil)
		tr.end(sp)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("events: status %d: %s", status, body)
		}
		var pr pollResponse
		if err == nil {
			err = json.Unmarshal(body, &pr)
		}
		if err != nil {
			o.err = err
			return o
		}
		for _, ev := range pr.Events {
			since = ev.Seq
			at, err := time.Parse(time.RFC3339Nano, ev.Time)
			if err != nil {
				o.err = fmt.Errorf("event time: %w", err)
				return o
			}
			switch ev.Type {
			case "queued":
				queued = at
			case "running":
				running = at
			case "done", "failed", "cancelled":
				terminal, state = at, ev.Type
			}
		}
		if pr.Terminal && state == "" {
			o.err = fmt.Errorf("job %s: terminal stream without a terminal event", sub.ID)
			return o
		}
	}
	o.queueWait, o.run = running.Sub(queued), terminal.Sub(running)
	if state != "done" {
		o.err = fmt.Errorf("job %s finished %s", sub.ID, state)
		return o
	}

	t1 := time.Now()
	sp = tr.start(root, "http.result", rid)
	status, body, err = s.call(ctx, http.MethodGet, "/v1/pipeline/"+sub.ID+"/result", rid, nil)
	tr.end(sp)
	o.result = time.Since(t1)
	o.latency, o.cpu = time.Since(t0), processCPU()-c0
	o.resultBytes = len(body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: status %d: %s", status, body)
	}
	var rb resultBody
	if err == nil {
		err = json.Unmarshal(body, &rb)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.hit, o.out, o.report = rb.CacheHit, rb.outputs, rb.Report
	return o
}

// call makes one HTTP call and reads the whole response body.
func (s *server) call(ctx context.Context, method, path, rid string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-ID", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		return 0, nil, fmt.Errorf("%s %s: X-Request-ID echoed as %q, sent %q", method, path, got, rid)
	}
	return resp.StatusCode, data, nil
}
