package deps_test

import (
	"fmt"
	"testing"

	"repro/internal/deps"
	"repro/internal/livermore"
	"repro/internal/pipeline"
)

// BenchmarkDDGBuild measures the one-pass priority-table build on a
// real unwound kernel (LL5's memory recurrence makes it the
// dependence-densest of the paper's loops).
func BenchmarkDDGBuild(b *testing.B) {
	for _, u := range []int{24, 96} {
		uw, err := pipeline.Unwind(livermore.ByName("LL5").Spec, u)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("unwind=%d", u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deps.Build(uw.Ops)
			}
			b.ReportMetric(float64(len(uw.Ops)), "ops")
		})
	}
}
