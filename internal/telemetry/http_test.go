package telemetry

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTraceHandlerRejectsBadSec: a sec that is not a positive finite
// number is a 400, answered at once without installing a tracer. NaN
// used to slip through (every comparison with NaN is false) and return
// an empty 200 trace.
func TestTraceHandlerRejectsBadSec(t *testing.T) {
	clearTracer()
	h := TraceHandler()
	for _, sec := range []string{"NaN", "abc", "0", "-1", "Inf", "-Inf"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?sec="+sec, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("sec=%s: status %d, want %d", sec, rec.Code, http.StatusBadRequest)
		}
		if ActiveTracer() != nil {
			t.Fatalf("sec=%s: a tracer was left installed", sec)
		}
	}
}

// TestTraceHandlerConflict: while a tracer is installed the handler
// answers 409 and leaves that tracer in place.
func TestTraceHandlerConflict(t *testing.T) {
	clearTracer()
	tr := StartTracing()
	defer StopTracing()
	rec := httptest.NewRecorder()
	TraceHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?sec=0.01", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("status %d, want %d", rec.Code, http.StatusConflict)
	}
	if ActiveTracer() != tr {
		t.Fatal("the handler replaced the installed tracer")
	}
}
