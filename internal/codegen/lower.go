package codegen

import "sysml/internal/hop"

// lowerTransLeft is the physical-operator pass that follows fusion in every
// mode: each LOCAL ba(+*) whose left input is r(t) becomes ba(t+*) over the
// transpose's input, SystemML's transpose-free left-transpose matmult
// (matrix.MatMultTransLeft). It runs after template construction, so the Row
// template's t(X) patterns and the Fused mode's mmchain have already
// claimed the transposes they cover. A transpose whose consumers are all
// lowered drops out of the DAG; one that also feeds another operator (or is
// a named output) stays for those consumers. Distributed matmults are left
// as they are.
func lowerTransLeft(d *hop.DAG) {
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind != hop.OpMatMult || h.ExecType != hop.ExecLocal ||
			h.Inputs[0].Kind != hop.OpTranspose {
			continue
		}
		h.Kind = hop.OpMatMultTransLeft
		h.SetInput(0, h.Inputs[0].Inputs[0])
	}
}

// transLeftOperand returns the r(t) operand a lowered ba(t+*) replaced —
// a detached size-only hop — so cost terms charge the lowered operator the
// FLOPs and bytes of the matmult it replaces.
func transLeftOperand(h *hop.Hop) *hop.Hop {
	x := h.Inputs[0]
	return &hop.Hop{Kind: hop.OpTranspose, Rows: x.Cols, Cols: x.Rows, Nnz: x.Nnz}
}

// readInputBytes is the input volume the cost terms charge a basic
// operator for reading; a lowered ba(t+*) is charged for reading t(X).
func readInputBytes(h *hop.Hop) float64 {
	if h.Kind == hop.OpMatMultTransLeft {
		return float64(transLeftOperand(h).ReadSizeBytes() + h.Inputs[1].ReadSizeBytes())
	}
	return float64(h.ReadInputSizeBytes())
}
