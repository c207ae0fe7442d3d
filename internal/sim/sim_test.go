package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/linalg"
)

const tol = 1e-10

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	state := Run(c)
	// (|00> + |11>)/sqrt2
	inv := math.Sqrt2 / 2
	if cmplx.Abs(state[0]-complex(inv, 0)) > tol ||
		cmplx.Abs(state[3]-complex(inv, 0)) > tol ||
		cmplx.Abs(state[1]) > tol || cmplx.Abs(state[2]) > tol {
		t.Errorf("Bell state = %v", state)
	}
}

func TestGHZ(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	p := Probabilities(c)
	if math.Abs(p[0]-0.5) > tol || math.Abs(p[7]-0.5) > tol {
		t.Errorf("GHZ probabilities = %v", p)
	}
}

func TestXFlipsQubitOrdering(t *testing.T) {
	// X on qubit 0 must flip the least significant bit.
	c := circuit.New(2)
	c.X(0)
	state := Run(c)
	if cmplx.Abs(state[1]-1) > tol {
		t.Errorf("X on q0 gave %v, want |01> (index 1)", state)
	}
	c2 := circuit.New(2)
	c2.X(1)
	state2 := Run(c2)
	if cmplx.Abs(state2[2]-1) > tol {
		t.Errorf("X on q1 gave %v, want |10> (index 2)", state2)
	}
}

func TestCXControlTargetOrientation(t *testing.T) {
	// CX(control=0, target=1) on |01> (q0=1) must give |11>.
	c := circuit.New(2)
	c.X(0)
	c.CX(0, 1)
	state := Run(c)
	if cmplx.Abs(state[3]-1) > tol {
		t.Errorf("CX(0,1)X(0)|00> = %v, want index 3", state)
	}
	// and with control=1 (which is 0) nothing happens.
	c2 := circuit.New(2)
	c2.X(0)
	c2.CX(1, 0)
	state2 := Run(c2)
	if cmplx.Abs(state2[1]-1) > tol {
		t.Errorf("CX(1,0)X(0)|00> = %v, want index 1", state2)
	}
}

func TestToffoli(t *testing.T) {
	c := circuit.New(3)
	c.X(0)
	c.X(1)
	c.CCX(0, 1, 2)
	state := Run(c)
	if cmplx.Abs(state[7]-1) > tol {
		t.Errorf("CCX|011> = %v, want |111>", state)
	}
	// Not triggered when one control is 0.
	c2 := circuit.New(3)
	c2.X(0)
	c2.CCX(0, 1, 2)
	state2 := Run(c2)
	if cmplx.Abs(state2[1]-1) > tol {
		t.Errorf("CCX|001> = %v, want unchanged", state2)
	}
}

func TestUnitaryMatchesDirectProduct(t *testing.T) {
	// Build the same circuit's unitary via Kron/Mul by hand and compare.
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	got := Unitary(c)

	h := linalg.FromRows([][]complex128{
		{complex(math.Sqrt2/2, 0), complex(math.Sqrt2/2, 0)},
		{complex(math.Sqrt2/2, 0), complex(-math.Sqrt2/2, 0)},
	})
	// H on qubit 0 (LSB) = I ⊗ H in the (q1,q0) big-endian matrix layout.
	hFull := linalg.Kron(linalg.Identity(2), h)
	// CX with control q0 (LSB), target q1: maps |01>→|11>, |11>→|01>.
	cxFull := linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	})
	want := linalg.Mul(cxFull, hFull)
	if !linalg.EqualApprox(got, want, tol) {
		t.Errorf("Unitary =\n%v\nwant\n%v", got, want)
	}
}

func TestUnitaryTimesStateMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(3, 20, rng)
	u := Unitary(c)
	init := linalg.RandomState(8, rng)
	direct := RunFrom(c, init)
	viaU := linalg.ApplyMatrix(u, init)
	for i := range direct {
		if cmplx.Abs(direct[i]-viaU[i]) > 1e-9 {
			t.Fatalf("Run and Unitary disagree at %d: %v vs %v", i, direct[i], viaU[i])
		}
	}
}

func TestInverseCircuitUndoes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomCircuit(3, 25, rng)
	inv := c.Inverse()
	full := c.Clone()
	full.MustAppendCircuit(inv, nil)
	u := Unitary(full)
	if !linalg.EqualApprox(u, linalg.Identity(8), 1e-8) {
		t.Error("C · C^-1 != I")
	}
}

func TestRunFromLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong state length")
		}
	}()
	RunFrom(circuit.New(2), linalg.NewVector(3))
}

func TestApplyKGeneralKernelMatchesSpecialized(t *testing.T) {
	// Apply a 2-qubit random unitary via both the unrolled 2-qubit kernel
	// and the generic one (forced by a wrapper matrix on 3 qubits with
	// identity).
	rng := rand.New(rand.NewSource(3))
	m := linalg.RandomUnitary(4, rng)
	state1 := linalg.RandomState(8, rng)
	state2 := state1.Copy()
	ApplyMatrixOp(state1, 3, m, []int{2, 0})
	// Same thing via a 3-qubit matrix m ⊗ I acting on qubits [2,0,1].
	big := linalg.Kron(m, linalg.Identity(2))
	ApplyMatrixOp(state2, 3, big, []int{2, 0, 1})
	for i := range state1 {
		if cmplx.Abs(state1[i]-state2[i]) > 1e-9 {
			t.Fatalf("kernels disagree at %d", i)
		}
	}
}

func TestPropSimulationPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(4, 30, r)
		return math.Abs(Run(c).Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPropUnitaryIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(3, 15, r)
		return Unitary(c).IsUnitary(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// randomCircuit builds a random circuit over a small gate alphabet.
func randomCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64()*2*math.Pi)
		case 2:
			c.RY(rng.Intn(n), rng.Float64()*2*math.Pi)
		case 3:
			c.T(rng.Intn(n))
		case 4, 5:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CX(a, b)
		}
	}
	return c
}

func TestUnitaryWorkersInvariant(t *testing.T) {
	// Parallel column evolution must be bit-identical to the serial path
	// for every worker count, above and below the fan-out threshold.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 6} {
		c := randomCircuit(n, 40, rng)
		ref := UnitaryWorkers(c, 1)
		for _, workers := range []int{2, 4, 0} {
			got := UnitaryWorkers(c, workers)
			for i := range ref.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("n=%d workers=%d: element %d differs", n, workers, i)
				}
			}
		}
	}
}

func TestUnitaryWithCCXMatchesExpandedProduct(t *testing.T) {
	// The adder's ccx gates are the 3-qubit ops that reach the simulator
	// (through the generic ScatterTab kernel); its unitary must equal the
	// ordered product of every op's full-space embedding.
	c := algos.Adder(2, 1, 3)
	n := c.NumQubits
	want := linalg.Identity(1 << n)
	ccx := 0
	for _, op := range c.Ops {
		if len(op.Qubits) == 3 {
			ccx++
		}
		want = linalg.Mul(embedGate(n, OpMatrix(op), op.Qubits), want)
	}
	if ccx == 0 {
		t.Fatal("adder has no 3-qubit ops")
	}
	if got := Unitary(c); !linalg.EqualApprox(got, want, 1e-12) {
		t.Errorf("Unitary(adder) differs from the expanded product (max diff %g)", linalg.MaxAbsDiff(got, want))
	}
}

// embedGate expands a small gate on the listed qubits (first listed = most
// significant local bit) to the full 2^n x 2^n matrix, entry by entry.
func embedGate(n int, g *linalg.Matrix, qubits []int) *linalg.Matrix {
	k := len(qubits)
	mask := 0
	for _, q := range qubits {
		mask |= 1 << q
	}
	local := func(i int) int {
		l := 0
		for j, q := range qubits {
			if i&(1<<q) != 0 {
				l |= 1 << (k - 1 - j)
			}
		}
		return l
	}
	out := linalg.New(1<<n, 1<<n)
	for row := 0; row < 1<<n; row++ {
		for col := 0; col < 1<<n; col++ {
			if row&^mask == col&^mask {
				out.Set(row, col, g.At(local(row), local(col)))
			}
		}
	}
	return out
}
