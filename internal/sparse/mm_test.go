package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSym(30, 0.2, rng)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != a.N || b.NNZ() != a.NNZ() {
		t.Fatalf("round trip shape: n=%d nnz=%d, want n=%d nnz=%d", b.N, b.NNZ(), a.N, a.NNZ())
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || math.Abs(a.Val[k]-b.Val[k]) > 1e-15 {
			t.Fatalf("round trip entry %d mismatch", k)
		}
	}
}

func TestMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 2 2.0
3 3 2.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Error("symmetric entry not mirrored")
	}
	if a.NNZ() != 5 {
		t.Errorf("nnz = %d, want 5", a.NNZ())
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Error("pattern values should be 1")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "%%MatrixMarket matrix array real general\n2 2 1\n1 1 1\n",
		"bad symmetry":   "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1\n",
		"nonsquare":      "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n",
		"short entries":  "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"range":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"bad row index":  "%%MatrixMarket matrix coordinate real general\n2 2 1\nq 1 1\n",
		"truncated line": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"negative nnz":   "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
		"negative dims":  "%%MatrixMarket matrix coordinate real general\n-1 -1 0\n",
		"nnz over n*n":   "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n",
		"huge nnz":       "%%MatrixMarket matrix coordinate real general\n2 2 4000000000000000000\n1 1 1\n",
		"huge dims":      "%%MatrixMarket matrix coordinate real general\n4000000000000000000 4000000000000000000 1\n1 1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// FuzzReadMatrixMarket: the reader never panics on arbitrary input, and
// every matrix it accepts round-trips through WriteMatrixMarket unchanged.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 -0.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 4\n1 1 2\n2 1 -1\n2 2 2\n3 3 2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 2\n1 1 3\n1 1 -3\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("re-reading written matrix: %v", err)
		}
		if b.N != a.N || len(b.Col) != len(a.Col) {
			t.Fatalf("round trip shape: n=%d nnz=%d, want n=%d nnz=%d", b.N, len(b.Col), a.N, len(a.Col))
		}
		for i := range a.RowPtr {
			if a.RowPtr[i] != b.RowPtr[i] {
				t.Fatalf("round trip row pointer %d: %d, want %d", i, b.RowPtr[i], a.RowPtr[i])
			}
		}
		for k := range a.Col {
			same := math.Float64bits(a.Val[k]) == math.Float64bits(b.Val[k]) ||
				(math.IsNaN(a.Val[k]) && math.IsNaN(b.Val[k]))
			if a.Col[k] != b.Col[k] || !same {
				t.Fatalf("round trip entry %d: (%d, %g), want (%d, %g)", k, b.Col[k], b.Val[k], a.Col[k], a.Val[k])
			}
		}
	})
}
