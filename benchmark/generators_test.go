package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestEditWalkDeterministic: equal seeds give byte-identical walks,
// different seeds and different shapes give different ones.
func TestEditWalkDeterministic(t *testing.T) {
	a, b := editWalk(walkShapeSeed, 11, 30, sessionMix), editWalk(walkShapeSeed, 11, 30, sessionMix)
	if mustJSON(t, a) != mustJSON(t, b) {
		t.Error("the same seeds gave different walks")
	}
	if mustJSON(t, a) == mustJSON(t, editWalk(walkShapeSeed, 12, 30, sessionMix)) {
		t.Error("different seeds gave the same walk")
	}
	if mustJSON(t, a) == mustJSON(t, editWalk(walkShapeSeed+1, 11, 30, sessionMix)) {
		t.Error("different shape seeds gave the same walk")
	}
	if len(a) != 30 || a[0].Kind != kindInitial {
		t.Errorf("walk has %d steps starting with %q", len(a), a[0].Kind)
	}
}

// TestEditWalkMix: the benchmark's walk has every kind of edit, and a
// revert really returns to an earlier version.
func TestEditWalkMix(t *testing.T) {
	walk := editWalk(walkShapeSeed, 2018, benchSizes.walkSteps, sessionMix)
	kinds := make(map[string]int)
	for i, s := range walk {
		kinds[s.Kind]++
		if s.Kind != kindRevert {
			continue
		}
		found := false
		for _, earlier := range walk[:i-1] {
			found = found || earlier.Variant == s.Variant
		}
		if !found || walk[i-1].Variant == s.Variant {
			t.Errorf("step %d is a revert but does not return to a different earlier version", i)
		}
	}
	for _, k := range []string{kindInitial, kindPrep, kindML, kindEval, kindRevert} {
		if kinds[k] == 0 {
			t.Errorf("walk has no %s step (kinds: %v)", k, kinds)
		}
	}
}

// TestLabelingKeepsShape: two seeds give different workflows with the same
// reuse structure — versions are equal under one labeling exactly when
// they are under the other, and the cost-bearing knobs do not move.
func TestLabelingKeepsShape(t *testing.T) {
	a, b := editWalk(walkShapeSeed, 1, 30, sessionMix), editWalk(walkShapeSeed, 2, 30, sessionMix)
	count := func(v [6]bool) (n int) {
		for _, on := range v {
			if on {
				n++
			}
		}
		return
	}
	for i := range a {
		va, vb := a[i].Variant, b[i].Variant
		if a[i].Kind != b[i].Kind || va.Learner != vb.Learner || va.Epochs != vb.Epochs ||
			va.WithCapital != vb.WithCapital || va.WithEduXOcc != vb.WithEduXOcc {
			t.Errorf("step %d: cost-bearing knobs differ between seeds: %+v vs %+v", i, va, vb)
		}
		na := count([6]bool{va.WithOccupation, va.WithMaritalStatus, va.WithRace, va.WithHours})
		nb := count([6]bool{vb.WithOccupation, vb.WithMaritalStatus, vb.WithRace, vb.WithHours})
		if na != nb {
			t.Errorf("step %d: %d single-column features on under one seed, %d under the other", i, na, nb)
		}
		for j := range a[:i] {
			if (a[j].Variant == va) != (b[j].Variant == vb) {
				t.Errorf("steps %d and %d are equal under one seed only", j, i)
			}
		}
	}
}

// TestTenantWalks: tenants and rounds get their own walks, the same every
// time, all from the same start version.
func TestTenantWalks(t *testing.T) {
	w00, w10, w01 := tenantWalk(5, 0, 0, 40), tenantWalk(5, 1, 0, 40), tenantWalk(5, 0, 1, 40)
	if mustJSON(t, w00) != mustJSON(t, tenantWalk(5, 0, 0, 40)) {
		t.Error("the same tenant, round and seed gave different walks")
	}
	if mustJSON(t, w00) == mustJSON(t, w10) || mustJSON(t, w00) == mustJSON(t, w01) {
		t.Error("two tenants or two rounds share a walk")
	}
	if mustJSON(t, w00) == mustJSON(t, tenantWalk(6, 0, 0, 40)) {
		t.Error("different seeds gave the same tenant walk")
	}
	if w00[0].Variant != w10[0].Variant || w00[0].Variant != w01[0].Variant {
		t.Error("walks do not start from the same version")
	}
}

// TestWideCostModelDeterministic: the wide_dag cost model is a function of
// the seed, with about half the nodes loadable.
func TestWideCostModelDeterministic(t *testing.T) {
	a, b := wideCostModel(50, 20, 3), wideCostModel(50, 20, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different cost models")
	}
	c := wideCostModel(50, 20, 4)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same cost model")
	}
	// Seeds permute whole chains: the multiset of costs is the same.
	total := func(xs []int64) (t int64) {
		for _, x := range xs {
			t += x
		}
		return
	}
	if total(a.Compute) != total(c.Compute) || total(a.Load) != total(c.Load) {
		t.Error("two seeds gave cost models of different total cost")
	}
	loadable := 0
	for _, l := range a.Loadable {
		if l {
			loadable++
		}
	}
	if loadable < 400 || loadable > 600 {
		t.Errorf("%d of 1002 nodes loadable, want about half", loadable)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{9, 1, 4}, [3]float64{1, 4, 9}},
		{[]float64{2, 8}, [3]float64{2, 5, 8}},
		{[]float64{3, 1, 2, 5, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.95); p != 5 {
		t.Errorf("p95 of 1..5 = %v, want 5", p)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.5); p != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", p)
	}
}

// TestVerdict: regressed, ok and unresolved as -compare marks them.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		m      metricSpec
		parent []float64
		change []float64
		want   string
	}{
		{lower, steady, []float64{105, 104, 106}, "ok"},
		{lower, steady, []float64{115, 114, 116}, "regressed"},
		{lower, steady, []float64{80, 81, 79}, "ok"},
		{higher, steady, []float64{85, 84, 86}, "regressed"},
		{higher, steady, []float64{120, 121, 119}, "ok"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{130, 131, 129}, "unresolved"},
	} {
		if got, _ := verdict(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.parent, tc.change, got, tc.want)
		}
	}
}
