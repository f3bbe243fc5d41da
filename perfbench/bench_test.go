package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestTailRule pins the percentile rule: the highest candidate
// percentile with at least ten samples strictly beyond its nearest
// rank, and the count reported with it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1, 100, 0},
		{99, 100, 0},  // p90 has rank 90: 9 beyond
		{100, 90, 10}, // rank 90: 10 beyond
		{180, 90, 18}, // p99 rank 179 leaves 1
		{999, 90, 99}, // p99 rank 990 leaves 9
		{1000, 99, 10},
		{1800, 99, 18},
		{10000, 99.9, 10},
	} {
		p, beyond := tailRule(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailRule(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestScheduleDeterminism: the same seed gives the same Poisson
// arrivals and the same request mix; another seed gives others.
func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(7, 1, 600, 10*time.Second)
	b := poissonSchedule(7, 1, 600, 10*time.Second)
	c := poissonSchedule(8, 1, 600, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Poisson schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same Poisson schedule")
	}
	if len(a) != 600 {
		t.Errorf("asked for 600 arrivals, got %d", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatal("arrivals out of order or past the run")
		}
	}
	// Poisson arrivals have exponential gaps: mean and standard
	// deviation both about 1/rate.
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, float64(a[i]-a[i-1])/1e6)
	}
	if m := mean(gaps); m < 14 || m > 19 {
		t.Errorf("mean gap %.2f ms, want about 16.7", m)
	}
	r1, s1, e1 := sweepSchedule(3, 30*time.Second)
	r2, s2, e2 := sweepSchedule(3, 30*time.Second)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) || e1 != e2 {
		t.Fatal("same seed gave different sweep schedules")
	}
	if !reflect.DeepEqual(warmSchedule(3, 5*time.Second, 15), warmSchedule(3, 5*time.Second, 15)) {
		t.Fatal("same seed gave different warm schedules")
	}
}

// TestSweepScheduleDepths checks the depth model the store cross-check
// rests on: pairs never mix measured and unmeasured platforms, a
// workload's first visit is cold, one workload is never requested twice
// within the spacing, heavy arrivals keep their gap, and every workload
// gets its cold and trace visit.
func TestSweepScheduleDepths(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkSweepSchedule(t, seed)
	}
}

func checkSweepSchedule(t *testing.T, seed int64) {
	reqs, arrivals, exp := sweepSchedule(seed, 30*time.Second)
	measured := map[string]bool{}
	workloadOf := func(r cellReq) string { r.L2KB, r.BTB = 0, 0; b, _ := json.Marshal(r); return string(b) }
	specOf := func(r cellReq) string { b, _ := json.Marshal(r); return string(b) }
	last := map[string]time.Duration{}
	seen := map[string]bool{}
	var want storeExpect
	lastHeavy := -sweepHeavyGap
	classes := map[string]int{}
	for _, a := range arrivals {
		classes[a.class]++
		if a.class != "tally" {
			if a.due-lastHeavy < sweepHeavyGap {
				t.Fatalf("heavy arrivals %v apart", a.due-lastHeavy)
			}
			lastHeavy = a.due
		}
		if len(a.reqs) != 2 {
			t.Fatalf("arrival with %d requests, want a pair", len(a.reqs))
		}
		w := workloadOf(reqs[a.reqs[0]])
		if workloadOf(reqs[a.reqs[1]]) != w {
			t.Fatal("a pair spans two workloads")
		}
		if prev, ok := last[w]; ok && a.due-prev < sweepSpacing {
			t.Fatalf("workload %s requested %v after its previous arrival", w, a.due-prev)
		}
		last[w] = a.due
		m0, m1 := measured[specOf(reqs[a.reqs[0]])], measured[specOf(reqs[a.reqs[1]])]
		if m0 != m1 {
			t.Fatal("a pair mixes a measured and an unmeasured platform")
		}
		files := int64(1)
		if reqs[a.reqs[0]].Kind == "tpcc" {
			files = 2
		}
		switch {
		case !seen[w]:
			if a.class != "cold" {
				t.Fatalf("first visit of %s classed %s", w, a.class)
			}
			want.tracesWritten += files
		case m0:
			if a.class != "tally" {
				t.Fatalf("pair of measured platforms classed %s", a.class)
			}
			want.entryHits += 2
		default:
			if a.class != "trace" || a.reqs[0] != a.reqs[1] {
				t.Fatalf("revisit with an unmeasured platform classed %s", a.class)
			}
			want.entryHits++
			want.traceHits += files
		}
		seen[w] = true
		for _, r := range a.reqs {
			measured[specOf(reqs[r])] = true
		}
	}
	if want != exp {
		t.Fatalf("schedule predicts %+v, recount gives %+v", exp, want)
	}
	t.Logf("seed %d: %d arrivals, first at %v, classes %v", seed, len(arrivals), arrivals[0].due, classes)
	n := len(sweepKeys())
	if classes["cold"] != n || classes["trace"] != n || classes["tally"] < 50 {
		t.Errorf("seed %d: classes %v: want %d cold, %d trace and at least 50 tally", seed, classes, n, n)
	}
}

// TestSelfTime covers nested and overlapping children: a child's
// children do not count against the grandparent, overlapping siblings
// count once, and a child past its parent's end is clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // past root
		{ID: 6, Parent: 5, Name: "late.child", Start: 95, End: 100},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 10, 5: 30 - 5, 6: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	rows, residue, total := layerTable(spans)
	if residue != 40 || total != 100 {
		t.Errorf("residue %d of %d, want 40 of 100", residue, total)
	}
	if len(rows) != 6 || rows[0].name != "root" {
		t.Errorf("rows %+v", rows)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metric tables of this
// program and BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
