package codegen_test

import (
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
	"sysml/internal/runtime"
)

// tmmDAG builds w = t(X) %*% y over a 100k×10 X; withOther adds a second,
// non-matmult consumer of the same t(X).
func tmmDAG(withOther bool) *hop.DAG {
	d := hop.NewDAG()
	x := d.Read("X", 100000, 10, -1)
	y := d.Read("y", 100000, 1, -1)
	xt := d.Transpose(x)
	d.Output("w", d.MatMult(xt, y))
	if withOther {
		d.Output("T", d.Binary(matrix.BinMul, xt, d.Lit(2)))
	}
	return d
}

func findKind(d *hop.DAG, k hop.OpKind) *hop.Hop {
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind == k {
			return h
		}
	}
	return nil
}

var lowerModes = []codegen.Mode{codegen.ModeBase, codegen.ModeFused, codegen.ModeGen}

func TestLowerTransLeftAllModes(t *testing.T) {
	env := runtime.Env{
		"X": matrix.Rand(100000, 10, 1, -1, 1, 1),
		"y": matrix.Rand(100000, 1, 1, -1, 1, 2),
	}
	ref, err := runtime.ExecuteDAG(tmmDAG(false), env, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range lowerModes {
		cfg := codegen.DefaultConfig()
		cfg.Mode = mode
		rep := &codegen.PlanReport{}
		d, _ := rewrite.Apply(tmmDAG(false))
		d = codegen.OptimizeReport(d, &cfg, codegen.NewPlanCache(true), codegen.NewStats(), rep)
		if strings.Contains(rep.HopsAfter, "r(t)") || !strings.Contains(rep.HopsAfter, "ba(t+*)") {
			t.Errorf("%v: t(X) %%*%% y not lowered:\n%s", mode, rep.HopsAfter)
		}
		if !strings.Contains(rep.HopsBefore, "r(t)") {
			t.Errorf("%v: hops before fusion lost the transpose:\n%s", mode, rep.HopsBefore)
		}
		got, err := runtime.ExecuteDAG(d, env, runtime.Options{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !got["w"].EqualsApprox(ref["w"], 1e-9) {
			t.Errorf("%v: lowered result differs from t(X) %%*%% y", mode)
		}
	}
}

// TestLowerTransLeftKeepsSharedTranspose: a t(X) that also feeds a
// non-matmult consumer stays in the DAG for that consumer while the
// matmult reads X directly.
func TestLowerTransLeftKeepsSharedTranspose(t *testing.T) {
	for _, mode := range lowerModes {
		cfg := codegen.DefaultConfig()
		cfg.Mode = mode
		d, _ := rewrite.Apply(tmmDAG(true))
		d = codegen.Optimize(d, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
		mm := d.Outputs["w"]
		if mm.Kind != hop.OpMatMultTransLeft || mm.Inputs[0].Kind != hop.OpData {
			t.Errorf("%v: matmult not lowered onto X:\n%s", mode, hop.Explain(d.Roots()))
		}
		xt := findKind(d, hop.OpTranspose)
		if xt == nil {
			t.Fatalf("%v: shared transpose dropped:\n%s", mode, hop.Explain(d.Roots()))
		}
		for _, p := range xt.Parents {
			if p == mm {
				t.Errorf("%v: lowered matmult still listed as a consumer of t(X)", mode)
			}
		}
	}
}

func TestLowerTransLeftSkipsDistributed(t *testing.T) {
	for _, mode := range lowerModes {
		cfg := codegen.DefaultConfig()
		cfg.Mode = mode
		cfg.Exec.MemBudgetBytes = 1 << 20
		d, _ := rewrite.Apply(tmmDAG(false))
		d = codegen.Optimize(d, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
		mm := d.Outputs["w"]
		if mm.ExecType != hop.ExecDist {
			t.Fatalf("%v: matmult not distributed under a 1 MB budget", mode)
		}
		if mm.Kind != hop.OpMatMult || mm.Inputs[0].Kind != hop.OpTranspose {
			t.Errorf("%v: distributed matmult was lowered:\n%s", mode, hop.Explain(d.Roots()))
		}
	}
}

// TestLowerTransLeftKeepsCosts pins that the lowered operator reports the
// FLOPs and bytes of the matmult it replaces: the cost-audit prediction
// (codegen's flops and IO terms), runtime.EstFlops and runtime.ActualFlops,
// for dense and sparse X.
func TestLowerTransLeftKeepsCosts(t *testing.T) {
	for _, nnz := range []int64{-1, 20000} {
		build := func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 100000, 10, nnz)
			d.Output("w", d.MatMult(d.Transpose(x), d.Read("y", 100000, 2, -1)))
			return d
		}
		cfg := codegen.DefaultConfig()
		cfg.Mode = codegen.ModeBase
		plain := build()
		codegen.AnnotatePredictions(plain, &cfg)
		lowered := codegen.Optimize(build(), &cfg, codegen.NewPlanCache(true), codegen.NewStats())
		a, b := plain.Outputs["w"], lowered.Outputs["w"]
		if b.Kind != hop.OpMatMultTransLeft {
			t.Fatalf("nnz=%d: not lowered", nnz)
		}
		if name := b.String(); name != "ba(t+*)" {
			t.Errorf("lowered operator renders as %q, want ba(t+*)", name)
		}
		if a.PredFlops != b.PredFlops || a.PredBytes != b.PredBytes || a.PredSec != b.PredSec {
			t.Errorf("nnz=%d: predictions differ: flops %g vs %g, bytes %d vs %d, sec %g vs %g",
				nnz, a.PredFlops, b.PredFlops, a.PredBytes, b.PredBytes, a.PredSec, b.PredSec)
		}
		if ea, eb := runtime.EstFlops(a), runtime.EstFlops(b); ea != eb {
			t.Errorf("nnz=%d: EstFlops %g vs %g", nnz, ea, eb)
		}
		x := matrix.Rand(1000, 10, 0.02, -1, 1, 3)
		if nnz < 0 {
			x = matrix.Rand(1000, 10, 1, -1, 1, 3)
		}
		y := matrix.Rand(1000, 2, 1, -1, 1, 4)
		out := matrix.MatMultTransLeft(x, y)
		fa := runtime.ActualFlops(a, []*matrix.Matrix{matrix.Transpose(x), y}, out)
		if fb := runtime.ActualFlops(b, []*matrix.Matrix{x, y}, out); fa != fb || fa == 0 {
			t.Errorf("nnz=%d: ActualFlops %g vs %g", nnz, fa, fb)
		}
	}
}
