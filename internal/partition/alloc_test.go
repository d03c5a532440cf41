package partition

import (
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// TestPartitionAllocsIndependentOfK guards the workspace reuse: every
// bisection after the first reuses the first one's buffers, so the number
// of allocations of a Partition call does not grow with the part count.
func TestPartitionAllocsIndependentOfK(t *testing.T) {
	a := problem.Poisson2D(128, 128)
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(3, func() { Partition(a, k, Options{Seed: 1}) })
	}
	if two, many := allocs(2), allocs(1024); many != two {
		t.Errorf("Partition allocations: %v at k=1024, %v at k=2; want equal", many, two)
	}
}

var partSink []int

// BenchmarkPartition times the partitions the benchmark's workloads
// build: the scaled 512x512 Poisson grid at 8192 parts (pointload8192)
// and Flan_1565 at 256 parts (one suite256 matrix).
func BenchmarkPartition(b *testing.B) {
	flan, _ := problem.SuiteByName("Flan_1565")
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		k    int
	}{
		{"poisson512/k8192", scaledPoisson(512), 8192},
		{"Flan_1565/k256", flan.Build(), 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				partSink = Partition(c.a, c.k, Options{Seed: 1})
			}
		})
	}
}
