package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"defectsim/internal/faultinject"
)

func TestDecodeNDetectRequestDefaults(t *testing.T) {
	req, cfg, nl, n, err := DecodeNDetectRequest([]byte(`{}`), decodeLimits)
	if err != nil {
		t.Fatalf("empty object must decode to the defaults: %v", err)
	}
	if req == nil || nl == nil {
		t.Fatal("nil request/netlist on success")
	}
	if n != 4 {
		t.Fatalf("default n = %d, want 4", n)
	}
	if cfg.Workers != decodeLimits.SimWorkers || cfg.Deadline != decodeLimits.DefaultDeadline {
		t.Fatalf("server limits not applied: %+v", cfg)
	}
}

func TestDecodeNDetectRequestBounds(t *testing.T) {
	for _, body := range []string{
		`{"n":-1}`, `{"n":17}`, `{"n":1000000}`,
	} {
		if _, _, _, _, err := DecodeNDetectRequest([]byte(body), decodeLimits); err == nil {
			t.Fatalf("accepted out-of-range n: %s", body)
		}
	}
	_, _, _, n, err := DecodeNDetectRequest([]byte(`{"n":2,"circuit":"c17","random_vectors":8}`), decodeLimits)
	if err != nil || n != 2 {
		t.Fatalf("valid request rejected: n=%d err=%v", n, err)
	}
	// Pipeline-level validation still applies through the embedded request.
	if _, _, _, _, err := DecodeNDetectRequest([]byte(`{"n":2,"stats":"bogus"}`), decodeLimits); err == nil {
		t.Fatal("accepted unknown stats through the ndetect decoder")
	}
	if _, _, _, _, err := DecodeNDetectRequest([]byte(`{"n":2,"unknown":true}`), decodeLimits); err == nil {
		t.Fatal("accepted unknown field")
	}
}

// TestNDetectEndpoint drives POST /v1/ndetect end to end through the async
// job API: submit, poll to done, check the DL(n) table in the result, and
// confirm coalescing keys separate studies from plain pipeline runs and
// studies with different n.
func TestNDetectEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Hold the first job in its switch-sim stage so the coalescing
	// submissions below find it in flight rather than already finished.
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()

	body := `{"circuit":"c17","random_vectors":8,"n":2}`
	code, _, data := post(t, ts.URL+"/v1/ndetect", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202; body: %s", code, data)
	}
	first := decode[jobStatus](t, data)
	if first.ID == "" {
		t.Fatalf("submit response has no job id: %s", data)
	}

	// A study with a different n must NOT coalesce onto the first job.
	code, _, data = post(t, ts.URL+"/v1/ndetect", `{"circuit":"c17","random_vectors":8,"n":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("different-n submit coalesced or failed: %d %s", code, data)
	}
	// A plain pipeline run with the same config must not coalesce either.
	code, _, data = post(t, ts.URL+"/v1/pipeline", `{"circuit":"c17","random_vectors":8}`)
	if code != http.StatusAccepted {
		t.Fatalf("plain pipeline submit coalesced with study: %d %s", code, data)
	}
	// An identical study DOES coalesce.
	code, _, data = post(t, ts.URL+"/v1/ndetect", body)
	if code != http.StatusOK {
		t.Fatalf("identical study did not coalesce: %d %s", code, data)
	}
	joined := decode[jobStatus](t, data)
	if joined.ID != first.ID {
		t.Fatalf("coalesced onto %s, want %s", joined.ID, first.ID)
	}

	release()
	code, data = waitResult(t, ts, first.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, data)
	}
	res := decode[jobResult](t, data)
	if len(res.NDetect) != 2 {
		t.Fatalf("want 2 sweep levels, got %+v", res.NDetect)
	}
	for i, lv := range res.NDetect {
		if lv.N != i+1 {
			t.Fatalf("level %d has n=%d", i, lv.N)
		}
		if i > 0 && lv.Vectors < res.NDetect[i-1].Vectors {
			t.Fatalf("|T(n)| not monotone: %+v", res.NDetect)
		}
		if lv.Theta <= 0 || lv.Theta > 1 {
			t.Fatalf("level %d Θ=%v out of range", i, lv.Theta)
		}
		if lv.DLPPM < 0 {
			t.Fatalf("level %d DL=%v", i, lv.DLPPM)
		}
	}
}

// TestNDetectShedAndDrain pins the admission answers of POST /v1/ndetect:
// 429 with Retry-After on a full queue, and 503 with Retry-After while
// the server drains.
func TestNDetectShedAndDrain(t *testing.T) {
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	study := func(seed int) string {
		return fmt.Sprintf(`{"circuit":"c17","random_vectors":8,"n":2,"seed":%d}`, seed)
	}

	// Study 1 holds the worker in switch-sim and study 2 fills the queue;
	// distinct seeds keep them from coalescing.
	var ids []string
	for seed := 1; seed <= 2; seed++ {
		code, _, data := post(t, ts.URL+"/v1/ndetect", study(seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d = %d, want 202; body: %s", seed, code, data)
		}
		ids = append(ids, decode[jobStatus](t, data).ID)
		if seed == 1 {
			waitState(t, ts, ids[0], StateRunning)
		}
	}
	code, hdr, data := post(t, ts.URL+"/v1/ndetect", study(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit on a full queue = %d, want 429; body: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed study has no Retry-After hint")
	}

	done := make(chan DrainReport, 1)
	go func() { done <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	code, hdr, data = post(t, ts.URL+"/v1/ndetect", study(4))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503; body: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining rejection has no Retry-After hint")
	}

	release()
	select {
	case rep := <-done:
		if !rep.Clean() {
			t.Fatalf("drain after release not clean: %+v", rep)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}
	for _, id := range ids {
		if code, data := waitResult(t, ts, id); code != http.StatusOK {
			t.Fatalf("study %s = %d: %s", id, code, data)
		}
	}
}

// TestNDetectEndpointRejectsBadRequest: malformed studies are 400s, not
// jobs.
func TestNDetectEndpointRejectsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{`{"n":99}`, `{"circuit":"nope"}`, `not json`} {
		code, _, data := post(t, ts.URL+"/v1/ndetect", body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", body, code, data)
		}
	}
}

// FuzzDecodeNDetectRequest pins the n-detect decoder's safety contract:
// arbitrary bytes never panic, and a nil error guarantees a runnable
// validated configuration within the server limits and 1 <= n <= 16.
func FuzzDecodeNDetectRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"n":4}`,
		`{"n":0}`,
		`{"n":-1}`,
		`{"n":17}`,
		`{"n":9223372036854775807}`,
		`{"circuit":"c17","n":2,"random_vectors":48}`,
		`{"circuit":"adder","seed":-9223372036854775808,"target_yield":1e308,"n":3}`,
		`{"n":2,"stage_budgets_ms":{"atpg":9007199254740993}}`,
		`{"n":2,"deadline_ms":-1,"workers":-1}`,
		`[1,2,3]`,
		`{"n":2} trailing`,
		`{"unknown_field":true,"n":2}`,
		"\x00\xff not json at all",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, cfg, nl, n, err := DecodeNDetectRequest(data, decodeLimits)
		if err != nil {
			return
		}
		if req == nil || nl == nil {
			t.Fatalf("nil error with nil request/netlist: %s", data)
		}
		if n < 1 || n > maxNDetect {
			t.Fatalf("accepted n=%d outside [1, %d]: %s", n, maxNDetect, data)
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted config fails validation (%v): %s", verr, data)
		}
		if cfg.Deadline < 0 || (decodeLimits.MaxDeadline > 0 && cfg.Deadline > decodeLimits.MaxDeadline) {
			t.Fatalf("accepted deadline %v outside [0, %v]: %s", cfg.Deadline, decodeLimits.MaxDeadline, data)
		}
	})
}
