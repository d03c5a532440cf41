package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// partHash is the SHA-256 of part encoded as "%d," per entry. Committed
// results (results/*.txt) were produced from these exact part vectors, so
// any change to the partitioner must keep every hash below.
func partHash(part []int) string {
	buf := make([]byte, 0, 6*len(part))
	for _, p := range part {
		buf = strconv.AppendInt(buf, int64(p), 10)
		buf = append(buf, ',')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// starGraph is a hub joined to n-1 leaves: heavy-edge matching pairs the
// hub with one leaf and leaves the rest unmatched, so coarsening stalls.
func starGraph(n int) *sparse.CSR {
	c := sparse.NewCOO(n, 3*n)
	c.Add(0, 0, float64(n))
	for i := 1; i < n; i++ {
		c.Add(i, i, 2)
		c.AddSym(0, i, -1)
	}
	return c.ToCSR()
}

// disjointGrids is the block-diagonal union of m copies of an s-by-s
// Poisson grid. BFS growth cannot cross components, so bisection falls
// back to its index-order sweep.
func disjointGrids(m, s int) *sparse.CSR {
	g := problem.Poisson2D(s, s)
	c := sparse.NewCOO(m*g.N, m*g.NNZ())
	for b := 0; b < m; b++ {
		off := b * g.N
		for i := 0; i < g.N; i++ {
			cols, vals := g.Row(i)
			for k, j := range cols {
				c.Add(off+i, off+j, vals[k])
			}
		}
	}
	return c.ToCSR()
}

func scaledPoisson(n int) *sparse.CSR {
	a := problem.Poisson2D(n, n)
	if _, err := sparse.Scale(a); err != nil {
		panic(err)
	}
	return a
}

// suiteGolden pins the part vector of every suite matrix (Build, seed 1)
// at k = 256 and k = 8192.
var suiteGolden = map[string][2]string{
	"Flan_1565": {
		"a9e41a94edaccb1121d1bdb41509365269a30b126b1bbd4a92d052d06a5a1623",
		"2395c338f63f0c4876bf836ee687c6a657300b0c73818ca61f729a44fd9b5f02",
	},
	"audikw_1": {
		"a7d4ecc49ba92c15b8e607629734af53a791646ce91c8f4ba7927ebd75884d82",
		"4535279bff3be387eda0ea57c7f40dda67c9b0cd9d46264978876923e8053597",
	},
	"ldoor": {
		"583f96469fb8171e32be18369b95dad3d474cae16afc3ea4430cf903f062e78a",
		"cbeebd48c259a05d096bd6eaa0f2aba7a1e548020854872972fe8d7917e14529",
	},
	"boneS10": {
		"48c59eb854ca581956f27088bfe0544c62e4f18ec056c3f5b0152d3e90f93939",
		"fda4d75b2138bcca7cf133f800d966f0a6f38f45627a81e5829a79d5bede94e2",
	},
	"inline_1": {
		"f21f50c9e5c007355cb4f5859bc131bab9ca102c3b22d9448353ce938de58e73",
		"0a457829fd7a097055ea87537dd4484fa71f5e2752faa7e49290bf5875b7d6e4",
	},
	"msdoor": {
		"04bcce22ef046784a28a7e002603f884cbc66725bbdadb5757fa62c196c6e519",
		"c3dffadfbd7057836c1a13fc7ed0f02622bbd7a96b8fec72c8cca99ca5dba05c",
	},
	"bone010": {
		"19d9ea0fe39f0b74b2a3429a2b84fa83111d5f805d01753d0935263daa8ca138",
		"ceefb70271b449bae6f969eb022d3c9a1533b8f05050d62b1e5a586b6ca2bb78",
	},
	"Geo_1438": {
		"213d920bd8ebdf1bcdb5280df76b3891bdd18adb706131fb77af21a57b7a1640",
		"bfab5f2e1170cc738a3a899d01b241dd79283ce40d6c2586fde119a445b0bd73",
	},
	"Hook_1498": {
		"9ce707a3b40a1e56cbd515c7738a321c8792a36eb0d2a8d8cddbd902f339f5f2",
		"6259af16bba13e560b7733807df0199f18f1d42fa74e090a31881a16533cfeaa",
	},
	"Serena": {
		"349ffa81c01c59a133af686a0e5d3dcdefe9c3e68fa64539f2d5c225d9a4d88a",
		"92bfa195ae5c2fea57088bda4f2003be1f8f7d4cb4e4a9b6793d57dba301f13a",
	},
	"Emilia_923": {
		"76c600e4a44c9a418b89c1087b1491fd99f3c2e115a4417d803eca9e899852e2",
		"5e1c9bb76eb9eda6c9503c2821352470e67eeb9d13f93f4efdd5251ae26b0af5",
	},
	"Fault_639": {
		"ac769c5f82eab52afd1bf91ced8058bf318878c524eec8f79a8321a55e41c4eb",
		"fda4d75b2138bcca7cf133f800d966f0a6f38f45627a81e5829a79d5bede94e2",
	},
	"StocF-1465": {
		"c2b21533a070292712b624ea689925e643a770842456789b94d86d4e3914aabb",
		"9d360167d3b2d5e0fac502938742b9f7fec6cde6bc062fa9f45b96bef524a51a",
	},
	"af_5_k101": {
		"5d59fcab463dba6a9f328b94c712b4509c9f81ec498f8b6886a2fc8a9cb23d4f",
		"95c271208fe24edbb97e9cc44b82e963b2ad5fa62067e76d4233a1c0e6a240d7",
	},
}

// TestPartitionGolden pins Partition's output bit for bit, and how much of
// a caller's stream it consumes, on inputs covering every path of the
// multilevel scheme: the scaled 512² Poisson grid of the point-load
// benchmark at 8192 parts, every suite matrix, a stalled coarsening, the
// disconnected-graph sweep, and empty-part repair.
func TestPartitionGolden(t *testing.T) {
	cases := []struct {
		name string
		a    func() *sparse.CSR
		k    int
		want string
	}{
		{"poisson512/k8192", func() *sparse.CSR { return scaledPoisson(512) }, 8192,
			"7d926720b4a1a648881c49ea9f3ee9e17bb9cdff30f03fb1a61e65ccaee2e72e"},
		{"star/k4", func() *sparse.CSR { return starGraph(500) }, 4,
			"472a2753583b5d17f929df3c5131efa4de57fd3f57dd5e73d73b5293990c58cc"},
		{"disjoint/k6", func() *sparse.CSR { return disjointGrids(3, 10) }, 6,
			"e4dee1f0e53a9af510dd6de55638d4260746d19e74dcf476672c0c29719048f3"},
		{"poisson8/k50", func() *sparse.CSR { return problem.Poisson2D(8, 8) }, 50,
			"ea67ac718fa47e4271c12b26b4580adc536d731b6098fd91263e231058b25e0d"},
	}
	for _, c := range cases {
		if got := partHash(Partition(c.a(), c.k, Options{Seed: 1})); got != c.want {
			t.Errorf("%s: part hash %s, want %s", c.name, got, c.want)
		}
	}

	for _, e := range problem.Suite() {
		want, ok := suiteGolden[e.Name]
		if !ok {
			t.Errorf("%s: no golden hashes", e.Name)
			continue
		}
		a := e.Build()
		for i, k := range []int{256, 8192} {
			if got := partHash(Partition(a, k, Options{Seed: 1})); got != want[i] {
				t.Errorf("%s/k%d: part hash %s, want %s", e.Name, k, got, want[i])
			}
		}
	}

	r := rand.New(rand.NewSource(42))
	a := problem.Poisson2D(64, 64)
	if got, want := partHash(Partition(a, 64, Options{Rand: r})),
		"07161022197e8134100e2fa60f35b468df596dd3a90bb9a6696b74fde629f517"; got != want {
		t.Errorf("caller rand: part hash %s, want %s", got, want)
	}
	if got, want := r.Int63(), int64(4616299380631205770); got != want {
		t.Errorf("caller rand: next Int63 after Partition = %d, want %d", got, want)
	}
}
