package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sysml/internal/par"
)

// tmmX returns an m×k test input: values in [-1, 1) with every third row
// emptied, dense or CSR.
func tmmX(m, k int, sparse bool, seed int64) *Matrix {
	x := Rand(m, k, 1, -1, 1, seed).ToDense()
	for i := 0; i < m; i += 3 {
		for j := 0; j < k; j++ {
			x.dense[i*k+j] = 0
		}
	}
	if sparse {
		// Thin the remaining rows too, so the CSR path sees rows of
		// varying length.
		rng := rand.New(rand.NewSource(seed))
		for c := range x.dense {
			if rng.Float64() < 0.7 {
				x.dense[c] = 0
			}
		}
		return x.ToSparse()
	}
	return x
}

// TestMatMultTransLeftMatchesTranspose checks t(X) %*% Y straight from X
// against MatMult(Transpose(X), Y) within 1e-9 over the listed shapes, X and
// Y dense and sparse. Shapes whose X or product is too large for a unit
// test are skipped; every listed value of m, k and n still appears.
func TestMatMultTransLeftMatchesTranspose(t *testing.T) {
	seed := int64(1)
	for _, m := range []int{1, 7, 4097, 100000} {
		for _, k := range []int{1, 10, 29, 784} {
			for _, n := range []int{1, 2, 5, 10, 20, 130} {
				if m*k > 4_000_000 || m*k*n > 4_000_000 {
					continue
				}
				for rep := 0; rep < 4; rep++ {
					xs, ys := rep&1 == 1, rep&2 == 2
					if ys && m*n > 1_000_000 {
						continue // sparse Y runs the fallback; one large case suffices
					}
					seed++
					x := tmmX(m, k, xs, seed)
					y := Rand(m, n, 1, -1, 1, seed+1000)
					if ys {
						y = Rand(m, n, 0.05, -1, 1, seed+1000).ToSparse()
					}
					want := MatMult(Transpose(x), y)
					got := MatMultTransLeft(x, y)
					if got.Rows != k || got.Cols != n || !got.EqualsApprox(want, propEps) {
						t.Errorf("m=%d k=%d n=%d sparseX=%v sparseY=%v: mismatch", m, k, n, xs, ys)
					}
				}
			}
		}
	}
}

func TestMatMultTransLeftAllZero(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		x := NewDense(5000, 10)
		if sparse {
			x = x.ToSparse()
		}
		y := Rand(5000, 3, 1, -1, 1, 1)
		got := MatMultTransLeft(x, y)
		if got.Rows != 10 || got.Cols != 3 || got.Nnz() != 0 {
			t.Errorf("sparse=%v: t(0) %%*%% Y = %dx%d with %d non-zeros, want 10x3 zeros",
				sparse, got.Rows, got.Cols, got.Nnz())
		}
	}
}

// TestMatMultTransLeftBitwiseAcrossPools checks that the result does not
// depend on the worker count: the row blocks and their reduction order are
// fixed by the shapes alone.
func TestMatMultTransLeftBitwiseAcrossPools(t *testing.T) {
	shapes := []struct {
		m, k, n int
		sparse  bool
	}{
		{100000, 10, 1, false}, {100000, 10, 5, false}, {4097, 29, 20, false},
		{4097, 10, 130, false}, {100000, 10, 1, true}, {4097, 784, 5, true},
	}
	for _, sh := range shapes {
		x := tmmX(sh.m, sh.k, sh.sparse, 5)
		y := Rand(sh.m, sh.n, 1, -1, 1, 6)
		var ref []float64
		for _, w := range []int{1, 2, 4} {
			got := Ctx{Par: par.NewPool(w)}.MatMultTransLeft(x, y).Dense()
			if ref == nil {
				ref = got
				continue
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Errorf("%dx%d n=%d sparse=%v: workers=%d differs from workers=1 at cell %d",
						sh.m, sh.k, sh.n, sh.sparse, w, i)
					break
				}
			}
		}
	}
}

// TestMatMultNarrowMatchesNaive covers the dot-product path of dense
// X %*% B with 2 <= n < 8 output columns.
func TestMatMultNarrowMatchesNaive(t *testing.T) {
	for _, m := range []int{1, 7, 100, 4097} {
		for _, k := range []int{1, 10, 29} {
			for n := 2; n < mmNarrowCols; n++ {
				t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
					a := tmmX(m, k, false, int64(m*k+n))
					b := Rand(k, n, 1, -1, 1, int64(n))
					if got := MatMult(a, b); !got.EqualsApprox(naiveMatMult(a, b), propEps) {
						t.Error("narrow product mismatch")
					}
				})
			}
		}
	}
}
