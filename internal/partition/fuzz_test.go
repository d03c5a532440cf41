package partition

import (
	"math/rand"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// randomSymmetric is a random symmetric sparse matrix on n rows with about
// deg off-diagonal entries per row and weights of either sign. It may be
// disconnected and have isolated rows.
func randomSymmetric(n, deg int, rng *rand.Rand) *sparse.CSR {
	c := sparse.NewCOO(n, n*(deg+1))
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(deg+1))
	}
	for e := 0; e < n*deg/2; e++ {
		c.AddSym(rng.Intn(n), rng.Intn(n), rng.Float64()-0.5)
	}
	return c.ToCSR()
}

// FuzzPartition checks the partition invariants over FEM meshes and random
// symmetric sparse graphs: k < n gives k non-empty parts, k >= n keeps ids
// in range, equal inputs give equal outputs, and Options.Seed is the
// stream Options.Rand gets from rand.NewSource(Seed+1).
func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint16(12), uint16(4), int64(1), false)
	f.Add(int64(2), uint16(300), uint16(37), int64(5), true)
	f.Fuzz(func(t *testing.T, gen int64, size, kraw uint16, seed int64, random bool) {
		var a *sparse.CSR
		if random {
			rng := rand.New(rand.NewSource(gen))
			a = randomSymmetric(1+int(size)%600, 1+rng.Intn(8), rng)
		} else {
			a = problem.FEM2D(2+int(size)%30, 0.3, gen)
		}
		k := 1 + int(kraw)%(a.N+4)

		part := Partition(a, k, Options{Seed: seed})
		if k < a.N {
			if err := Validate(part, a.N, k); err != nil {
				t.Fatalf("n=%d k=%d: %v", a.N, k, err)
			}
		} else {
			for i, p := range part {
				if p < 0 || p >= k {
					t.Fatalf("n=%d k=%d: row %d has part %d", a.N, k, i, p)
				}
			}
		}
		if again := Partition(a, k, Options{Seed: seed}); !samePart(part, again) {
			t.Fatalf("n=%d k=%d: repeated call differs", a.N, k)
		}
		byRand := Partition(a, k, Options{Rand: rand.New(rand.NewSource(seed + 1))})
		if !samePart(part, byRand) {
			t.Fatalf("n=%d k=%d: Options.Rand from Seed+1 differs from Options.Seed", a.N, k)
		}
	})
}
