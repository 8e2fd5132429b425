package profile

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
)

// TestCaptureKernelTrace checks the single-run trace: layer spans for the
// forward and backward passes, pack sub-spans from the packed conv path,
// and the run's metadata annotations.
func TestCaptureKernelTrace(t *testing.T) {
	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()

	m := reproWRN(3)
	tr, err := CaptureKernelTrace(m, core.BNOpt, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.ActiveTracer() != nil {
		t.Fatal("CaptureKernelTrace left a tracer installed")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if name, ok := e["name"].(string); ok {
			counts[name]++
		}
	}
	// BN-Opt runs forward and backward; WRN is conv/BN/ReLU-dominated.
	for _, want := range []string{"conv.fw", "conv.bw", "bn.fw", "bn.bw", "act.fw", "pack.fw"} {
		if counts[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, counts)
		}
	}
	if doc.Metadata["model"] != m.Tag || doc.Metadata["algo"] != core.BNOpt.String() {
		t.Errorf("metadata = %v", doc.Metadata)
	}
	if _, ok := doc.Metadata["pool_workers"]; !ok {
		t.Error("metadata missing pool_workers")
	}
}

// TestEveryLeafLayerEmitsSpans: on each of the paper's four models, one
// BN-Opt step emits a forward span naming every leaf layer, so the
// per-layer breakdown has no blind spots.
func TestEveryLeafLayerEmitsSpans(t *testing.T) {
	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()

	for _, tag := range []string{"WRN-AM", "RXT-AM", "MBV2", "R18-AM-AT"} {
		m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := CaptureKernelTrace(m, core.BNOpt, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Cat  string         `json:"cat"`
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
			t.Fatal(err)
		}
		traced := map[any]bool{}
		for _, e := range doc.TraceEvents {
			if e.Cat == "nn" && strings.HasSuffix(e.Name, ".fw") {
				traced[e.Args["layer"]] = true
			}
		}
		leaves := 0
		nn.Walk(m.Net, func(l nn.Layer) {
			if _, composite := l.(nn.Container); composite {
				return
			}
			leaves++
			if !traced[l.Name()] {
				t.Errorf("%s: leaf layer %s (%T) emitted no forward span", tag, l.Name(), l)
			}
		})
		if leaves == 0 {
			t.Fatalf("%s: no leaf layers walked", tag)
		}
	}
}
