package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"vpsec/internal/scenario"
)

// viewShapes returns one job per response shape the job endpoints
// serve, each holding result when it is done.
func viewShapes(name string, spec scenario.Spec, hash string, result []byte) map[string]*Job {
	hit := newJob("j-000001", name, "c", spec, hash)
	hit.completeHit(result)

	miss := newJob("j-000002", name, "c", spec, hash)
	miss.setRunning()
	miss.progress.p = Progress{Done: 8, Total: 8}
	miss.complete(result)

	running := newJob("j-000003", name, "c", spec, hash)
	running.setRunning()
	running.progress.p = Progress{Done: 3, Total: 8}

	failed := newJob("j-000004", name, "c", spec, hash)
	failed.setRunning()
	failed.fail(errors.New(`trial 3: <probe> read "0x40"` + "\nsecond line & more"))

	anon := newJob("j-000005", "", "c", spec, hash)
	anon.completeHit(result)

	return map[string]*Job{
		"hit": hit, "miss+progress": miss, "running+progress": running,
		"failed": failed, "no-scenario-name": anon,
	}
}

// TestJobViewSplice: writeJobView answers with exactly the bytes
// writeJSON(w, status, j.View(true)) writes — the re-encoding it
// replaces — for every served registry spec at 4 runs and every view
// shape, with a Content-Length that matches the body. It also pins
// that JobView.Result is the last field, which the splice relies on.
func TestJobViewSplice(t *testing.T) {
	vt := reflect.TypeOf(JobView{})
	if f, ok := vt.FieldByName("Result"); !ok || f.Index[0] != vt.NumField()-1 {
		t.Fatal("JobView.Result must be the last field: writeJobView appends it after the envelope")
	}
	served := 0
	for _, spec := range scenario.All() {
		switch spec.Kind {
		case scenario.KindCacheBench, scenario.KindCase, scenario.KindVariant,
			scenario.KindEviction, scenario.KindSMT:
		default:
			continue
		}
		served++
		spec.Runs, spec.Jobs = 4, 1
		data := canonicalResult(t, spec)
		for shape, j := range viewShapes(spec.Name, spec.Canonical(), spec.Hash(), data) {
			status := http.StatusOK
			if !j.terminal() {
				status = http.StatusAccepted
			}
			want := httptest.NewRecorder()
			writeJSON(want, status, j.View(true))
			got := httptest.NewRecorder()
			writeJobView(got, status, j.View(true))
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s (%s): spliced view differs from the re-encoded one\ngot  %d %q\nwant %d %q",
					spec.Name, shape, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
			}
			if cl := got.Header().Get("Content-Length"); cl != strconv.Itoa(got.Body.Len()) {
				t.Fatalf("%s (%s): Content-Length %s for a %d-byte body", spec.Name, shape, cl, got.Body.Len())
			}
		}
	}
	if served != 1033 {
		t.Errorf("compared %d served registry specs, want 1033", served)
	}
}

// BenchmarkSubmitHit is the server's cache-hit layer: one wait=true
// POST /v1/jobs for a stored cell, through ServeHTTP on a warmed
// server — request decode, spec parse and hash, store lookup, and the
// job view write.
func BenchmarkSubmitHit(b *testing.B) {
	for _, kind := range []scenario.Kind{scenario.KindCacheBench, scenario.KindCase} {
		b.Run(string(kind), func(b *testing.B) {
			var spec scenario.Spec
			for _, s := range scenario.All() {
				if s.Kind == kind {
					spec = s
					break
				}
			}
			raw, err := json.Marshal(spec)
			if err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(submitRequest{Spec: raw, Wait: true})
			if err != nil {
				b.Fatal(err)
			}
			s := New(Config{Workers: 1})
			defer s.Shutdown(context.Background())
			submit := func(want string) {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
				if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache": "`+want+`"`)) {
					b.Fatalf("submit: status %d, want a %s: %.200s", rec.Code, want, rec.Body.Bytes())
				}
			}
			submit(CacheMiss)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(CacheHit)
			}
		})
	}
}
