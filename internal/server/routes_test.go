package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inferray"
)

// allowedMethod is a method wrap lets through for the route (any works
// for the method-agnostic probes).
func allowedMethod(rt route) string {
	if rt.methods == nil {
		return http.MethodGet
	}
	return rt.methods[0]
}

// TestRouteWriterKeepsOptionalInterfaces walks the route table: the
// ResponseWriter a handler receives behind wrap must still flush (the
// PR-10 bug: a wrapper without Flush buffered GET /wal frames until the
// long-poll window closed) and must unwrap to the server's writer, so
// http.NewResponseController reaches whatever else that writer offers.
func TestRouteWriterKeepsOptionalInterfaces(t *testing.T) {
	s := NewWithConfig(inferray.New(), Config{QueryRPS: 1000, QueryBurst: 100, UpdateRPS: 1000, UpdateBurst: 100, MaxInFlight: 4})
	for _, rt := range routes {
		t.Run(rt.endpoint, func(t *testing.T) {
			base := httptest.NewRecorder()
			reached := false
			probe := rt
			probe.handler = func(_ *Server, w http.ResponseWriter, _ *http.Request) {
				reached = true
				if _, ok := w.(http.Flusher); !ok {
					t.Errorf("%T does not implement http.Flusher", w)
				}
				u, ok := w.(interface{ Unwrap() http.ResponseWriter })
				if !ok {
					t.Fatalf("%T has no Unwrap", w)
				}
				if u.Unwrap() != http.ResponseWriter(base) {
					t.Errorf("Unwrap() = %T, want the server's writer", u.Unwrap())
				}
				if err := http.NewResponseController(w).Flush(); err != nil {
					t.Errorf("ResponseController.Flush: %v", err)
				}
			}
			s.wrap(probe).ServeHTTP(base, httptest.NewRequest(allowedMethod(rt), rt.pattern, nil))
			if !reached {
				t.Fatalf("handler not reached: status %d", base.Code)
			}
			if !base.Flushed {
				t.Error("flush did not reach the server's writer")
			}
		})
	}
}

// TestRouteTableConformance drives every mounted route with an allowed
// method, a disallowed method, and against a read-only server: the
// refusals carry the status and headers the table implies, every
// response has a request ID, and every route is counted under its
// endpoint label.
func TestRouteTableConformance(t *testing.T) {
	open := func(cfg Config) *httptest.Server {
		r, err := inferray.Open(inferray.WithDurability(t.TempDir(), inferray.DurabilityOptions{Sync: "none"}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewWithConfig(r, cfg).Handler())
		t.Cleanup(func() { ts.Close(); r.Close() })
		return ts
	}
	do := func(ts *httptest.Server, method, pattern string) *http.Response {
		t.Helper()
		// wait=0 keeps GET /wal from long-polling; the rest ignore it.
		req, err := http.NewRequest(method, ts.URL+pattern+"?wait=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Request-ID") == "" {
			t.Errorf("%s %s: no X-Request-ID", method, pattern)
		}
		return resp
	}

	const leaderURL = "http://leader.example:7070"
	leader := open(DefaultConfig())
	replica := open(Config{ReadOnly: true, LeaderURL: leaderURL + "/"})
	for _, rt := range routes {
		resp := do(leader, allowedMethod(rt), rt.pattern)
		if resp.StatusCode == http.StatusMethodNotAllowed || resp.StatusCode == http.StatusForbidden {
			t.Errorf("%s %s: refused with %d", allowedMethod(rt), rt.pattern, resp.StatusCode)
		}
		if rt.methods != nil {
			resp := do(leader, http.MethodDelete, rt.pattern)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("DELETE %s: status %d, want 405", rt.pattern, resp.StatusCode)
			}
			if got, want := resp.Header.Get("Allow"), strings.Join(rt.methods, ", "); got != want {
				t.Errorf("DELETE %s: Allow %q, want %q", rt.pattern, got, want)
			}
		}
		resp = do(replica, allowedMethod(rt), rt.pattern)
		if refused := resp.StatusCode == http.StatusForbidden; refused != rt.write {
			t.Errorf("read-only %s %s: status %d, write route = %v", allowedMethod(rt), rt.pattern, resp.StatusCode, rt.write)
		}
		if got := resp.Header.Get("Location"); rt.write && got != leaderURL+rt.pattern {
			t.Errorf("read-only %s: Location %q, want %q", rt.pattern, got, leaderURL+rt.pattern)
		}
	}

	exposition := scrape(t, leader)
	for _, rt := range routes {
		if !strings.Contains(exposition, fmt.Sprintf("inferray_http_requests_total{endpoint=%q,", rt.endpoint)) {
			t.Errorf("/metrics has no inferray_http_requests_total sample for endpoint %q", rt.endpoint)
		}
	}
}
