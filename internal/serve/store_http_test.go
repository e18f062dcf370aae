package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"defectsim/internal/experiments"
	"defectsim/internal/faultinject"
	"defectsim/internal/layout"
	"defectsim/internal/store"
	"defectsim/internal/switchsim"
)

// envelopeFor runs the pipeline once in-process and returns the cache key
// and envelope bytes a completed run of body would persist — the ground
// truth for the /v1/store wire tests.
func envelopeFor(t *testing.T, body string, limits Config) (key string, env []byte) {
	t.Helper()
	_, cfg, nl, err := DecodeRequest([]byte(body), limits)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	p, err := experiments.RunCtx(context.Background(), nl, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	env, err = p.EncodeCache()
	if err != nil {
		t.Fatalf("EncodeCache: %v", err)
	}
	return experiments.CacheKey(nl.Name, cfg), env
}

func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return res.StatusCode, buf.Bytes()
}

// TestStoreEndpoints exercises the peer-facing store API end to end:
// miss, idempotent PUT, byte-exact GET, HEAD, and the rejection paths
// (malformed key, corrupt envelope).
func TestStoreEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()})
	key, env := envelopeFor(t, smallC17, s.cfg)
	url := ts.URL + "/v1/store/" + key

	if code, _ := doReq(t, http.MethodGet, url, nil); code != http.StatusNotFound {
		t.Fatalf("GET missing key = %d, want 404", code)
	}
	if code, _ := doReq(t, http.MethodHead, url, nil); code != http.StatusNotFound {
		t.Fatalf("HEAD missing key = %d, want 404", code)
	}

	if code, body := doReq(t, http.MethodPut, url, env); code != http.StatusCreated {
		t.Fatalf("PUT = %d, want 201; body: %s", code, body)
	}
	// Content-addressed keys make replays free: the second PUT is a no-op.
	if code, _ := doReq(t, http.MethodPut, url, env); code != http.StatusOK {
		t.Fatalf("re-PUT = %d, want 200 (idempotent)", code)
	}

	code, got := doReq(t, http.MethodGet, url, nil)
	if code != http.StatusOK {
		t.Fatalf("GET = %d, want 200", code)
	}
	if !bytes.Equal(got, env) {
		t.Fatalf("GET returned %d bytes != %d PUT bytes", len(got), len(env))
	}
	if code, _ := doReq(t, http.MethodHead, url, nil); code != http.StatusOK {
		t.Fatalf("HEAD = %d, want 200", code)
	}

	if code, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/not-a-key", nil); code != http.StatusBadRequest {
		t.Fatalf("GET invalid key = %d, want 400", code)
	}
	// A corrupt envelope must be rejected before it can touch the store.
	corrupt := []byte(strings.Replace(string(env), `"checksum":"`, `"checksum":"0`, 1))
	otherKey := strings.Repeat("0", 32)
	if code, _ := doReq(t, http.MethodPut, ts.URL+"/v1/store/"+otherKey, corrupt); code != http.StatusBadRequest {
		t.Fatalf("PUT corrupt envelope = %d, want 400", code)
	}
	if ok, err := s.Store().Stat(context.Background(), otherKey); err != nil || ok {
		t.Fatalf("corrupt envelope reached the store (ok=%v err=%v)", ok, err)
	}
}

// TestStorePutHealsCorruptEntry: a torn copy already on disk does not
// make a peer PUT of the good envelope a no-op — the PUT overwrites it
// (201), GET then serves the good bytes, and a further PUT is the
// idempotent 200.
func TestStorePutHealsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheDir: dir})
	key, env := envelopeFor(t, smallC17, s.cfg)
	url := ts.URL + "/v1/store/" + key
	torn := env[:len(env)/2]
	if err := os.WriteFile(filepath.Join(dir, key+".json"), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if code, body := doReq(t, http.MethodPut, url, env); code != http.StatusCreated {
		t.Fatalf("PUT over torn copy = %d, want 201; body: %s", code, body)
	}
	if code, got := doReq(t, http.MethodGet, url, nil); code != http.StatusOK || !bytes.Equal(got, env) {
		t.Fatalf("GET after healing PUT = %d with %d bytes, want 200 with the %d PUT bytes", code, len(got), len(env))
	}
	if code, _ := doReq(t, http.MethodPut, url, env); code != http.StatusOK {
		t.Fatalf("re-PUT over healed copy = %d, want 200 (idempotent)", code)
	}
}

// TestStorePutInconsistentEnvelope pins the restore checks at the service
// surface. An envelope whose checksum verifies but whose contents
// disagree with the circuit (here a c17 payload re-sealed with
// "untestable": []) passes PUT, which checks integrity only. The next job
// for the key must not be served from it: the result is 200 with the
// reference values and a cache degradation, and the fresh run rewrites
// the entry with the reference bytes.
func TestStorePutInconsistentEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()})
	key, env := envelopeFor(t, smallC17, s.cfg)
	version, payload, err := store.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		t.Fatal(err)
	}
	fields["untestable"] = json.RawMessage("[]")
	if payload, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	poisoned, err := store.Seal(version, payload)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/"+key, poisoned); code != http.StatusCreated {
		t.Fatalf("PUT = %d, want 201; body: %s", code, body)
	}

	st := submitJob(t, ts, smallC17)
	code, data := waitResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d, want 200; body: %s", code, data)
	}
	res := decode[jobResult](t, data)
	if res.CacheHit {
		t.Fatal("inconsistent envelope served as a cache hit")
	}
	if len(res.Degradations) != 1 || !strings.Contains(res.Degradations[0], "degraded cache: fell back to fresh run") {
		t.Fatalf("degradations = %q, want one cache fallback", res.Degradations)
	}

	_, cfg, nl, err := DecodeRequest([]byte(smallC17), s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.DecodeCached(context.Background(), nl, cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != ref.Yield || res.Vectors != len(ref.TestSet.Patterns) ||
		res.StuckAtCoverage != ref.TestSet.Coverage(true) ||
		res.ThetaFinal != ref.ThetaCurve(false).Final() || res.GammaFinal != ref.GammaCurve().Final() {
		t.Fatalf("result %+v differs from the reference run", res)
	}
	if got, err := s.Store().Get(context.Background(), key); err != nil || !bytes.Equal(got, env) {
		t.Fatalf("fresh run did not rewrite the entry with the reference bytes (err=%v)", err)
	}
}

// goodTraceRows returns the good_trace rows a version-3 entry of p once
// carried: the fault-free machine's state before the first vector and
// after each, one byte per net.
func goodTraceRows(p *experiments.Pipeline) [][]byte {
	m := switchsim.NewMachine(p.Circuit)
	row := func() []byte {
		out := make([]byte, p.Circuit.NumNets)
		for n := range out {
			out[n] = byte(m.Val(n))
		}
		return out
	}
	rows := [][]byte{row()}
	for _, vec := range p.Vectors() {
		m.Apply(vec)
		rows = append(rows, row())
	}
	return rows
}

// TestStorePutPoisonedTraceNDetect PUTs checksum-valid c17 envelopes
// carrying a good_trace field, as entries written before the campaign
// stepped its own fault-free machine did — the fault-free states, and
// three shapes no fault-free machine produces — and runs POST /v1/ndetect
// on each: the payload parser ignores the field, so the job is served
// from the stored envelope and finishes done with the Θ(n) of the
// reference run.
func TestStorePutPoisonedTraceNDetect(t *testing.T) {
	const pipeline = `{"circuit":"c17","random_vectors":4}`
	for _, tc := range []struct {
		name   string
		mutate func(rows [][]byte)
	}{
		{"valid rows", func([][]byte) {}},
		{"value 9", func(rows [][]byte) {
			for _, row := range rows[1:] {
				for n := 2; n < len(row); n++ {
					row[n] = 9
				}
			}
		}},
		{"GND at V1", func(rows [][]byte) {
			for _, row := range rows {
				row[layout.NetGND] = byte(switchsim.V1)
			}
		}},
		{"first state not the reset state", func(rows [][]byte) { copy(rows[0], rows[1]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()})
			_, cfg, nl, err := DecodeRequest([]byte(pipeline), s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := experiments.RunCtx(context.Background(), nl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			env, err := ref.EncodeCache()
			if err != nil {
				t.Fatal(err)
			}
			version, payload, err := store.Open(env)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(payload, &fields); err != nil {
				t.Fatal(err)
			}
			rows := goodTraceRows(ref)
			tc.mutate(rows)
			if fields["good_trace"], err = json.Marshal(rows); err != nil {
				t.Fatal(err)
			}
			if payload, err = json.Marshal(fields); err != nil {
				t.Fatal(err)
			}
			traced, err := store.Seal(version, payload)
			if err != nil {
				t.Fatal(err)
			}
			key := experiments.CacheKey(nl.Name, cfg)
			if code, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/"+key, traced); code != http.StatusCreated {
				t.Fatalf("PUT = %d, want 201; body: %s", code, body)
			}

			code, _, data := post(t, ts.URL+"/v1/ndetect", `{"circuit":"c17","random_vectors":4,"n":4}`)
			if code != http.StatusAccepted {
				t.Fatalf("submit = %d, want 202; body: %s", code, data)
			}
			id := decode[jobStatus](t, data).ID
			code, data = waitResult(t, ts, id)
			if code != http.StatusOK {
				t.Fatalf("result = %d, want 200; body: %s", code, data)
			}
			if _, data := get(t, ts.URL+"/v1/pipeline/"+id); decode[jobStatus](t, data).State != "done" {
				t.Fatalf("job status: %s", data)
			}
			res := decode[jobResult](t, data)
			if !res.CacheHit {
				t.Fatal("the study did not run on the stored envelope")
			}
			want, err := experiments.RunNDetectStudy(context.Background(), ref, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.NDetect) != len(want.Theta) {
				t.Fatalf("%d sweep levels, want %d", len(res.NDetect), len(want.Theta))
			}
			for i, lv := range res.NDetect {
				if lv.Theta != want.Theta[i] {
					t.Fatalf("Θ(n=%d) = %v, the reference run's is %v", lv.N, lv.Theta, want.Theta[i])
				}
			}
		})
	}
}

// TestStoreGetPartialResponseRecovered injects one partial response (full
// Content-Length, truncated body) into the store GET handler and verifies
// the HTTP store client detects the short read and recovers by retrying.
func TestStoreGetPartialResponseRecovered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()})
	key, env := envelopeFor(t, smallC17, s.cfg)
	if err := s.Store().Put(context.Background(), key, env); err != nil {
		t.Fatalf("seed store: %v", err)
	}

	defer faultinject.Set(faultinject.HookStoreServeGet,
		faultinject.Until(1, faultinject.Fail(faultinject.ErrPartialResponse)))()

	remote, err := store.NewHTTP(ts.URL, store.HTTPOptions{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	got, err := remote.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get after injected partial response: %v", err)
	}
	if !bytes.Equal(got, env) {
		t.Fatalf("recovered envelope differs from stored one")
	}
}
