package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkCensusOperators times each census operator kernel alone, on one
// core, at 12 000 train + 3 000 test rows, with the operators and input
// wiring of the census workflow (occupation and eduXocc enabled). Run it
// with
//
//	go test ./internal/core -run '^$' -bench CensusOperators
func BenchmarkCensusOperators(b *testing.B) {
	p := workload.DefaultCensusParams(workload.GenerateCensus(12000, 3000, 1))
	p.WithOccupation, p.WithEduXOcc = true, true
	c, err := core.Compile(p.Build())
	if err != nil {
		b.Fatal(err)
	}
	// eval runs node name's operator on its workflow inputs, keeping its value.
	values := make([]any, len(c.Ops))
	eval := func(tb testing.TB, name string) {
		id := c.Graph.Lookup(name)
		var inputs []any
		for _, parent := range c.Graph.Parents(id) {
			inputs = append(inputs, values[parent])
		}
		v, err := c.Ops[id].Apply(inputs)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		values[id] = v
	}
	for _, name := range []string{"data", "rows", "clean", "age", "edu", "ageBucket", "occ", "eduXocc", "income"} {
		eval(b, name)
	}
	run := func(name string, nodes ...string) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, n := range nodes {
					eval(b, n)
				}
			}
		})
	}
	run("scan", "rows")
	run("clean", "clean")
	run("field", "age", "edu")
	run("bucket", "ageBucket")
	run("cross", "eduXocc")
	run("featurize", "income")
	for _, kind := range []string{"logreg", "svm"} {
		learner := core.NewLearner(kind, 0.1, 10)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := learner.Apply([]any{values[c.Graph.Lookup("income")]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
