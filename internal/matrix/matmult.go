package matrix

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sysml/internal/vector"
)

// Matrix-multiplication kernel dispatch thresholds. Representation choice
// (dense vs. CSR input kernels) follows the inputs; only the sparse×sparse
// product chooses its own output format, via spspOutputSparseThreshold.
const (
	// mmNarrowCols: below this output width (and above 1), one dot product
	// per output cell over a transposed copy of B beats per-row
	// vector-primitive calls, whose inner loops would run over n only.
	mmNarrowCols = 8

	// mmRowGrain is the minimum number of output rows per parallel chunk
	// for the dense and sparse-input kernels.
	mmRowGrain = 8

	// mmKTile and mmNTile are the cache-blocking tile sizes of the dense
	// kernel: the inner loops touch a kTile×nTile panel of B (128×1024
	// doubles = 1 MB, sized for L2) while streaming rows of A and C.
	mmKTile = 128
	mmNTile = 1024

	// spspOutputSparseThreshold: a sparse×sparse product whose estimated
	// output sparsity is below this builds a CSR result directly (avoiding
	// a dense rows×cols allocation); denser products accumulate into a
	// dense output. Deliberately below SparsityThreshold so borderline
	// products stay dense (matrix products densify quickly).
	spspOutputSparseThreshold = 0.1

	// spspOutputSparseMinCols: tiny outputs always stay dense — CSR
	// overhead only pays off with enough columns per row.
	spspOutputSparseMinCols = 64
)

// MatMult computes C = A %*% B on the default execution context.
func MatMult(a, b *Matrix) *Matrix { return Ctx{}.MatMult(a, b) }

// MatMult computes C = A %*% B, dispatching on representations. Dense×dense
// runs a cache-blocked (k- and n-tiled) rank-4 ikj loop parallelized over
// row blocks; sparse left inputs iterate nonzeros per row. The output is
// dense except for very sparse sparse×sparse products, which build CSR
// directly (see spspOutputSparseThreshold).
func (ctx Ctx) MatMult(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: matmult shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.IsSparse() && b.IsSparse() {
		return ctx.matMultSparseSparse(a, b)
	}
	out := ctx.NewDense(a.Rows, b.Cols)
	switch {
	case !a.IsSparse() && !b.IsSparse():
		ctx.matMultDenseDense(a, b, out)
	case a.IsSparse() && !b.IsSparse():
		ctx.matMultSparseDense(a, b, out)
	default:
		ctx.matMultDenseSparse(a, b, out)
	}
	return out
}

func (ctx Ctx) matMultDenseDense(a, b, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	ad, bd, cd := a.dense, b.dense, c.dense
	if n == 1 {
		// Matrix-vector: per-row dot products.
		ctx.Par.For(m, 32, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cd[i] = vector.DotProduct(ad, bd, i*k, 0, k)
			}
		})
		return
	}
	if n < mmNarrowCols {
		// Narrow outputs: one length-k dot product per output cell over a
		// transposed copy of B, so the inner loop runs over k, not over n.
		bt := ctx.Buf.GetUninit(n * k)
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				bt[j*k+kk] = bd[kk*n+j]
			}
		}
		ctx.Par.For(m, mmRowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ar, cr := ad[i*k:i*k+k], cd[i*n:i*n+n]
				for j := range cr {
					cr[j] = dotNarrow(ar, bt[j*k:j*k+k])
				}
			}
		})
		ctx.Buf.Put(bt)
		return
	}
	// Cache-blocked ikj: tile over k (mmKTile) and n (mmNTile) so the inner
	// loops reuse an L2-resident panel of B across the rows of the chunk,
	// and unroll k by 4 (MultAdd4) so each C element is loaded and stored
	// once per four multiplies.
	ctx.Par.For(m, mmRowGrain, func(lo, hi int) {
		for jj := 0; jj < n; jj += mmNTile {
			jn := n - jj
			if jn > mmNTile {
				jn = mmNTile
			}
			for kk := 0; kk < k; kk += mmKTile {
				kmax := kk + mmKTile
				if kmax > k {
					kmax = k
				}
				for i := lo; i < hi; i++ {
					ai := i * k
					ci := i*n + jj
					k4 := kk
					for ; k4+4 <= kmax; k4 += 4 {
						vector.MultAdd4(bd,
							ad[ai+k4], ad[ai+k4+1], ad[ai+k4+2], ad[ai+k4+3],
							cd, k4*n+jj, (k4+1)*n+jj, (k4+2)*n+jj, (k4+3)*n+jj,
							ci, jn)
					}
					for ; k4 < kmax; k4++ {
						vector.MultAdd(bd, ad[ai+k4], cd, k4*n+jj, ci, jn)
					}
				}
			}
		}
	})
}

// dotNarrow returns sum(a[p]*b[p]) over len(a) with two interleaved
// accumulators; on the short rows of narrow products it beats the
// 8-way-unrolled vector.DotProduct, whose call and tail overheads dominate.
func dotNarrow(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1 float64
	p := 0
	for ; p+2 <= len(a); p += 2 {
		s0 += a[p] * b[p]
		s1 += a[p+1] * b[p+1]
	}
	if p < len(a) {
		s0 += a[p] * b[p]
	}
	return s0 + s1
}

func (ctx Ctx) matMultSparseDense(a, b, c *Matrix) {
	n := b.Cols
	as, bd, cd := a.sparse, b.dense, c.dense
	if n == 1 {
		ctx.Par.For(a.Rows, 32, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vals, cols := as.Row(i)
				cd[i] = vector.DotProductSparse(vals, cols, bd, 0)
			}
		})
		return
	}
	ctx.Par.For(a.Rows, mmRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals, cols := as.Row(i)
			ci := i * n
			for kk, j := range cols {
				vector.MultAdd(bd, vals[kk], cd, j*n, ci, n)
			}
		}
	})
}

func (ctx Ctx) matMultDenseSparse(a, b, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	ad, bs, cd := a.dense, b.sparse, c.dense
	ctx.Par.For(m, mmRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai, ci := i*k, i*n
			for kk := 0; kk < k; kk++ {
				av := ad[ai+kk]
				if av == 0 {
					continue
				}
				vals, cols := bs.Row(kk)
				for p, j := range cols {
					cd[ci+j] += av * vals[p]
				}
			}
		}
	})
}

// estProductSparsity estimates the output sparsity of A %*% B under the
// standard independence assumption (Boehm et al., metadata propagation):
// P[c_ij != 0] = 1 - (1 - spA*spB)^k.
func estProductSparsity(a, b *Matrix) float64 {
	spA := float64(a.sparse.Nnz()) / (float64(a.Rows) * float64(a.Cols))
	spB := float64(b.sparse.Nnz()) / (float64(b.Rows) * float64(b.Cols))
	return 1 - math.Pow(1-spA*spB, float64(a.Cols))
}

func (ctx Ctx) matMultSparseSparse(a, b *Matrix) *Matrix {
	n := b.Cols
	if n >= spspOutputSparseMinCols && estProductSparsity(a, b) < spspOutputSparseThreshold {
		return ctx.matMultSparseSparseSparseOut(a, b)
	}
	out := ctx.NewDense(a.Rows, n)
	as, bs, cd := a.sparse, b.sparse, out.dense
	ctx.Par.For(a.Rows, mmRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			avals, acols := as.Row(i)
			ci := i * n
			for ka, kk := range acols {
				av := avals[ka]
				bvals, bcols := bs.Row(kk)
				for p, j := range bcols {
					cd[ci+j] += av * bvals[p]
				}
			}
		}
	})
	return out
}

// spa is a per-worker sparse accumulator (dense row accumulator with a
// touched-column list and per-row generation marks), reused across all
// chunks a worker claims.
type spa struct {
	acc     []float64
	mark    []int
	touched []int
	bp      *BufPool // pool acc was drawn from
}

func newSPA(n int, bp *BufPool) *spa {
	s := &spa{acc: bp.Get(n), mark: make([]int, n), touched: make([]int, 0, 256), bp: bp}
	for j := range s.mark {
		s.mark[j] = -1
	}
	return s
}

func (s *spa) release() { s.bp.Put(s.acc) }

// matMultSparseSparseSparseOut builds a CSR product: each worker scatters
// B-rows into its dense row accumulator, gathers the touched columns in
// sorted order, and appends finished rows to a per-chunk CSR fragment; the
// fragments are stitched in row order at the end.
func (ctx Ctx) matMultSparseSparseSparseOut(a, b *Matrix) *Matrix {
	n := b.Cols
	as, bs := a.sparse, b.sparse
	type frag struct {
		lo, hi int
		rowPtr []int // nnz per row, later prefix-summed globally
		cols   []int
		vals   []float64
	}
	var mu sync.Mutex
	var frags []*frag
	nw, _ := ctx.Par.Chunks(a.Rows, mmRowGrain)
	spas := make([]*spa, nw)
	ctx.Par.ForIndexed(a.Rows, mmRowGrain, func(w, lo, hi int) {
		s := spas[w]
		if s == nil {
			s = newSPA(n, ctx.Buf)
			spas[w] = s
		}
		f := &frag{lo: lo, hi: hi, rowPtr: make([]int, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			avals, acols := as.Row(i)
			s.touched = s.touched[:0]
			for ka, kk := range acols {
				av := avals[ka]
				bvals, bcols := bs.Row(kk)
				for p, j := range bcols {
					if s.mark[j] != i {
						s.mark[j] = i
						s.acc[j] = 0
						s.touched = append(s.touched, j)
					}
					s.acc[j] += av * bvals[p]
				}
			}
			sort.Ints(s.touched)
			nnz := 0
			for _, j := range s.touched {
				if v := s.acc[j]; v != 0 {
					f.cols = append(f.cols, j)
					f.vals = append(f.vals, v)
					nnz++
				}
			}
			f.rowPtr = append(f.rowPtr, nnz)
		}
		mu.Lock()
		frags = append(frags, f)
		mu.Unlock()
	})
	for _, s := range spas {
		if s != nil {
			s.release()
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].lo < frags[j].lo })
	csr := &CSR{RowPtr: make([]int, a.Rows+1)}
	total := 0
	for _, f := range frags {
		total += len(f.vals)
	}
	csr.ColIdx = make([]int, 0, total)
	csr.Values = make([]float64, 0, total)
	for _, f := range frags {
		for r, nnz := range f.rowPtr {
			csr.RowPtr[f.lo+r+1] = csr.RowPtr[f.lo+r] + nnz
		}
		csr.ColIdx = append(csr.ColIdx, f.cols...)
		csr.Values = append(csr.Values, f.vals...)
	}
	return NewSparseCSR(a.Rows, b.Cols, csr)
}

// TSMM row-blocking parameters.
const (
	// tsmmRowGrain is the minimum number of input rows per parallel chunk.
	tsmmRowGrain = 16

	// tsmmPartialCapBytes caps the total memory spent on per-worker
	// upper-triangle accumulators; beyond it TSMM runs single-threaded
	// (the result itself would dominate memory anyway).
	tsmmPartialCapBytes = 64 << 20
)

// TSMM computes t(X) %*% X on the default execution context.
func TSMM(x *Matrix) *Matrix { return Ctx{}.TSMM(x) }

// TSMM computes t(X) %*% X exploiting symmetry of the result: only the
// upper triangle is accumulated — in parallel into per-worker accumulators
// drawn from the buffer pool — then reduced and mirrored in parallel.
// The dense kernel is rank-4 row-blocked (MultAdd4): four input rows per
// pass over the triangle, so each output element is loaded and stored once
// per four updates.
func (ctx Ctx) TSMM(x *Matrix) *Matrix {
	n := x.Cols
	out := ctx.NewDense(n, n)
	od := out.dense
	nw, _ := ctx.Par.Chunks(x.Rows, tsmmRowGrain)
	if nw > 1 && int64(nw)*int64(n)*int64(n)*8 <= tsmmPartialCapBytes {
		partials := make([][]float64, nw)
		ctx.Par.ForIndexed(x.Rows, tsmmRowGrain, func(w, lo, hi int) {
			part := partials[w]
			if part == nil {
				part = ctx.Buf.Get(n * n)
				partials[w] = part
			}
			tsmmUpper(x, part, lo, hi)
		})
		// Reduce per-worker triangles into the output, parallel over rows
		// (row i owns the triangle segment [i, n)).
		ctx.Par.For(n, 32, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				off := i*n + i
				for _, part := range partials {
					if part != nil {
						vector.Add(part, od, off, off, n-i)
					}
				}
			}
		})
		for _, part := range partials {
			if part != nil {
				ctx.Buf.Put(part)
			}
		}
	} else {
		tsmmUpper(x, od, 0, x.Rows)
	}
	// Mirror the upper triangle, parallel over output rows: row j receives
	// column j of the triangle above it (disjoint contiguous writes).
	ctx.Par.For(n, 64, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i := 0; i < j; i++ {
				od[j*n+i] = od[i*n+j]
			}
		}
	})
	return out
}

// tsmmUpper accumulates the upper triangle of t(X[lo:hi]) %*% X[lo:hi]
// into od (a zeroed or partially accumulated n×n buffer).
func tsmmUpper(x *Matrix, od []float64, lo, hi int) {
	n := x.Cols
	if x.IsSparse() {
		xs := x.sparse
		for i := lo; i < hi; i++ {
			vals, cols := xs.Row(i)
			for p, jp := range cols {
				vp := vals[p]
				off := jp * n
				for q := p; q < len(cols); q++ {
					od[off+cols[q]] += vp * vals[q]
				}
			}
		}
		return
	}
	xd := x.dense
	i := lo
	for ; i+8 <= hi; i += 8 {
		o0 := i * n
		o1, o2, o3 := o0+n, o0+2*n, o0+3*n
		o4, o5, o6, o7 := o0+4*n, o0+5*n, o0+6*n, o0+7*n
		for jp := 0; jp < n; jp++ {
			vector.MultAdd8(xd,
				xd[o0+jp], xd[o1+jp], xd[o2+jp], xd[o3+jp],
				xd[o4+jp], xd[o5+jp], xd[o6+jp], xd[o7+jp],
				od, o0+jp, o1+jp, o2+jp, o3+jp, o4+jp, o5+jp, o6+jp, o7+jp,
				jp*n+jp, n-jp)
		}
	}
	for ; i+4 <= hi; i += 4 {
		o0 := i * n
		o1, o2, o3 := o0+n, o0+2*n, o0+3*n
		for jp := 0; jp < n; jp++ {
			vector.MultAdd4(xd,
				xd[o0+jp], xd[o1+jp], xd[o2+jp], xd[o3+jp],
				od, o0+jp, o1+jp, o2+jp, o3+jp,
				jp*n+jp, n-jp)
		}
	}
	for ; i < hi; i++ {
		off := i * n
		for jp := 0; jp < n; jp++ {
			vp := xd[off+jp]
			if vp == 0 {
				continue
			}
			vector.MultAdd(xd, vp, od, off+jp, jp*n+jp, n-jp)
		}
	}
}

// Left-transpose matmult (t(X) %*% Y) blocking parameters.
const (
	// tmmBlockRows is the minimum number of rows of X per row block; each
	// block accumulates one k×n partial.
	tmmBlockRows = 512

	// tmmMaxBlocks caps the number of row blocks, and so of partials:
	// taller inputs get proportionally taller blocks.
	tmmMaxBlocks = 64

	// tmmReduceGrain is the minimum number of partial cells summed per
	// parallel chunk of the block-order reduction.
	tmmReduceGrain = 1 << 15
)

// MatMultTransLeft computes t(X) %*% Y on the default execution context.
func MatMultTransLeft(x, y *Matrix) *Matrix { return Ctx{}.MatMultTransLeft(x, y) }

// MatMultTransLeft computes t(X) %*% Y straight from X, without
// materializing t(X) (SystemML's left-transpose matmult). X's rows are cut
// into row blocks that depend only on the shapes; each block scans its rows
// into a k×n partial that starts at zero, and the partials are summed in
// block order. Which worker ran which block never enters the result, so it
// is bitwise identical for any worker count. A sparse Y, or partials that
// would exceed tsmmPartialCapBytes, fall back to MatMult(Transpose(X), Y).
func (ctx Ctx) MatMultTransLeft(x, y *Matrix) *Matrix {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("matrix: matmult shape mismatch t(%dx%d) x %dx%d", x.Rows, x.Cols, y.Rows, y.Cols))
	}
	m, k, n := x.Rows, x.Cols, y.Cols
	bs := max(tmmBlockRows, (m+tmmMaxBlocks-1)/tmmMaxBlocks)
	nb := (m + bs - 1) / bs
	kn := k * n
	if y.IsSparse() || int64(nb)*int64(kn)*8 > tsmmPartialCapBytes {
		xt := ctx.Transpose(x)
		out := ctx.MatMult(xt, y)
		xt.Release()
		return out
	}
	// Dense X scans rows of its wider operand in the inner loop: with
	// k >= n the partials hold t(t(X) %*% Y), n×k, row j accumulating
	// y[i,j] * X[i,:]; otherwise they hold k×n, row p accumulating
	// X[i,p] * Y[i,:]. Sparse X always accumulates k×n.
	trans := !x.IsSparse() && k >= n
	parts := ctx.Buf.Get(nb * kn)
	ctx.Par.For(nb, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			r0, r1 := b*bs, min(b*bs+bs, m)
			part := parts[b*kn : (b+1)*kn]
			switch {
			case x.IsSparse():
				tmmSparse(x.sparse, y.dense, n, part, r0, r1)
			case trans:
				tmmDense(x.dense, k, y.dense, n, part, r0, r1)
			default:
				tmmDense(y.dense, n, x.dense, k, part, r0, r1)
			}
		}
	})
	out := ctx.NewDenseUninit(k, n)
	od := out.dense
	reduce := func(lo, hi int) {
		for p := lo; p < hi; p++ {
			for j := 0; j < n; j++ {
				idx := p*n + j
				if trans {
					idx = j*k + p
				}
				var s float64
				for b := 0; b < nb; b++ {
					s += parts[b*kn+idx]
				}
				od[p*n+j] = s
			}
		}
	}
	if nb*kn <= tmmReduceGrain {
		// A reduction below one grain is not worth a parallel region.
		reduce(0, k)
	} else {
		ctx.Par.For(k, max(1, tmmReduceGrain/(n*nb)), reduce)
	}
	ctx.Buf.Put(parts)
	return out
}

// tmmDense accumulates part[j*ac+q] += b[i*bc+j] * a[i*ac+q] over rows
// [lo, hi) of the row-aligned dense operands a (width ac) and b (width
// bc): part is bc×ac, and each pass loads and stores a part row once per
// eight input rows (MultAdd8), like the TSMM kernel.
func tmmDense(a []float64, ac int, b []float64, bc int, part []float64, lo, hi int) {
	i := lo
	for ; i+8 <= hi; i += 8 {
		a0, b0 := i*ac, i*bc
		for j := 0; j < bc; j++ {
			vector.MultAdd8(a,
				b[b0+j], b[b0+bc+j], b[b0+2*bc+j], b[b0+3*bc+j],
				b[b0+4*bc+j], b[b0+5*bc+j], b[b0+6*bc+j], b[b0+7*bc+j],
				part, a0, a0+ac, a0+2*ac, a0+3*ac, a0+4*ac, a0+5*ac, a0+6*ac, a0+7*ac,
				j*ac, ac)
		}
	}
	for ; i < hi; i++ {
		for j := 0; j < bc; j++ {
			vector.MultAdd(a, b[i*bc+j], part, i*ac, j*ac, ac)
		}
	}
}

// tmmSparse accumulates the k×n partial of t(X[lo:hi]) %*% Y[lo:hi] for a
// CSR X and a dense Y of width n: each non-zero X[i,p] adds X[i,p]*Y[i,:]
// to partial row p.
func tmmSparse(xs *CSR, yd []float64, n int, part []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		vals, cols := xs.Row(i)
		if n == 1 {
			yi := yd[i]
			if yi == 0 {
				continue
			}
			for q, p := range cols {
				part[p] += vals[q] * yi
			}
			continue
		}
		for q, p := range cols {
			vector.MultAdd(yd, vals[q], part, i*n, p*n, n)
		}
	}
}
