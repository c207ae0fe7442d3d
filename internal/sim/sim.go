// Package sim implements an ideal statevector simulator for the circuit IR.
// Gates are applied with bit-indexed kernels (no full-matrix expansion), so
// simulating an n-qubit circuit costs O(gates · 2^n). Full circuit unitaries
// are built column-by-column by evolving each basis state; this is only used
// for small circuits (synthesis blocks and ground-truth references).
package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/par"
)

// ZeroState returns |0...0> on n qubits.
func ZeroState(n int) linalg.Vector {
	return linalg.BasisVector(1<<n, 0)
}

// ApplyOp applies one gate operation to the n-qubit state in place.
func ApplyOp(state linalg.Vector, n int, op circuit.Op) {
	spec := op.Spec()
	m := spec.Build(op.Params)
	ApplyMatrixOp(state, n, m, op.Qubits)
}

// ApplyMatrixOp applies an arbitrary 2^k x 2^k matrix to the listed qubits
// of an n-qubit state in place. The first listed qubit is the most
// significant local bit, matching the gate-matrix convention.
func ApplyMatrixOp(state linalg.Vector, n int, m *linalg.Matrix, qubits []int) {
	if len(state) != 1<<n {
		panic(fmt.Sprintf("sim: state length %d != 2^%d", len(state), n))
	}
	// The kernels are shared with the synthesizer (internal/linalg): 1- and
	// 2-qubit gates are unrolled, wider ones (ccx) take the ScatterTab path.
	switch len(qubits) {
	case 1:
		linalg.ApplyVec1(state, (*[4]complex128)(m.Data), qubits[0])
	case 2:
		linalg.ApplyVec2(state, (*[16]complex128)(m.Data), qubits[0], qubits[1])
	default:
		linalg.ApplyVecTab(state, m.Data, linalg.NewScatterTab(qubits))
	}
}

// Run evolves |0...0> through the circuit and returns the final state.
func Run(c *circuit.Circuit) linalg.Vector {
	return RunFrom(c, ZeroState(c.NumQubits))
}

// RunFrom evolves the given initial state (copied) through the circuit.
func RunFrom(c *circuit.Circuit, initial linalg.Vector) linalg.Vector {
	if len(initial) != 1<<c.NumQubits {
		panic(fmt.Sprintf("sim: initial state length %d != 2^%d", len(initial), c.NumQubits))
	}
	state := initial.Copy()
	for _, op := range c.Ops {
		ApplyOp(state, c.NumQubits, op)
	}
	return state
}

// Probabilities returns the output distribution of the circuit from |0...0>.
func Probabilities(c *circuit.Circuit) []float64 {
	return Run(c).Probabilities()
}

// parallelColsMin is the smallest matrix dimension at which column
// evolution fans out across goroutines; below it (synthesis blocks are
// ≤ 4 qubits, dim ≤ 16) the per-column work cannot amortize the
// scheduling overhead.
const parallelColsMin = 32

// Unitary returns the full 2^n x 2^n unitary of the circuit. Cost is
// O(gates · 4^n); intended for n ≲ 12. Columns of dim ≥ 32 matrices are
// evolved concurrently with runtime.NumCPU() workers; use UnitaryWorkers
// to bound the fan-out. The result is bit-identical for every worker
// count (columns are independent).
func Unitary(c *circuit.Circuit) *linalg.Matrix {
	return UnitaryWorkers(c, 0)
}

// UnitaryWorkers is Unitary with an explicit worker-goroutine cap
// (0 or negative selects runtime.NumCPU(), 1 forces the serial path).
func UnitaryWorkers(c *circuit.Circuit, workers int) *linalg.Matrix {
	n := c.NumQubits
	dim := 1 << n
	// Build each gate matrix once up front; columns then share them
	// read-only, whether evolved serially or concurrently.
	mats := make([]*linalg.Matrix, len(c.Ops))
	for i, op := range c.Ops {
		mats[i] = op.Spec().Build(op.Params)
	}
	if dim < parallelColsMin {
		workers = 1
	}
	cols := make([]linalg.Vector, dim)
	par.ForEach(workers, dim, func(j int) {
		col := linalg.BasisVector(dim, j)
		for i, op := range c.Ops {
			ApplyMatrixOp(col, n, mats[i], op.Qubits)
		}
		cols[j] = col
	})
	out := linalg.New(dim, dim)
	for j := 0; j < dim; j++ {
		for i := 0; i < dim; i++ {
			out.Set(i, j, cols[j][i])
		}
	}
	return out
}

// OpMatrix returns the gate matrix for an op (convenience wrapper).
func OpMatrix(op circuit.Op) *linalg.Matrix {
	return gate.MustLookup(op.Name).Build(op.Params)
}
