package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// toySizes finish every workload, traced run included, in a few seconds.
var toySizes = sizes{
	setups: 1, sample: 40,
	tenants: 2, shapes: 8, tenantTrain: 16, fleetCycles: 4,
	missPretrain: 60, missTexts: 48, missCache: 32,
	serveStream: 60, serveSegment: 16 << 10,
	inlineQueries: 60, inlineObs: 20,
	probeSeconds: 0.3, probeRate: 100,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// result is the last line of a run's output, as the driver reads it.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// check holds one run's result to the declaration in BENCHMARK.json:
// exactly the declared names, each with its declared unit and a finite
// value, nothing failed.
func check(t *testing.T, out *bytes.Buffer, declared []specMetric, nonZero bool) result {
	t.Helper()
	r := lastLine(t, out)
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out)
	}
	for _, m := range declared {
		got, ok := r.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		case !ok:
			t.Errorf("declared metric %s was not emitted", m.Name)
		case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s has no finite value", m.Name)
		case got.Unit != m.Unit || got.Unit == "":
			t.Errorf("%s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case nonZero && *got.Value <= 0:
			t.Errorf("%s = %v, an end-to-end metric must never be 0", m.Name, *got.Value)
		}
	}
	if len(r.Metrics) != len(declared) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(declared))
	}
	return r
}

// TestSmoke runs every workload at toy size, untraced and traced, on two
// seeds.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	exercised := map[string]bool{}
	for _, seed := range []int64{42, 7} {
		for _, w := range sp.Workloads {
			cfg := config{seed: seed, seconds: 0.3, tmp: t.TempDir(), sz: toySizes}
			var out bytes.Buffer
			if _, err := runUntraced(w.Name, cfg, &out); err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			check(t, &out, sp.EndToEnd, true)
			out.Reset()
			rep, err := runTraced(w.Name, cfg, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.Name, seed, err)
			}
			check(t, &out, sp.PerLayer, false)
			for name := range rep.values {
				exercised[name] = true
			}
		}
	}
	// A layer metric may be 0 on a workload that never enters the layer,
	// but some workload must measure it.
	for _, m := range sp.PerLayer {
		if !exercised[m.Name] {
			t.Errorf("no workload sets %s", m.Name)
		}
	}
}
