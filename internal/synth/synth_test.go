package synth

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/sim"
)

func TestApplyLeftMatchesFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := linalg.RandomUnitary(8, rng)
	g := linalg.RandomUnitary(4, rng)
	got := m.Copy()
	applyLeft(got, g, []int{2, 0})
	// Full G: acts on qubits 2 (MSB of gate) and 0; expand manually via
	// a 3-qubit circuit application to identity columns.
	full := linalg.Identity(8)
	applyLeft(full, g, []int{2, 0})
	want := linalg.Mul(full, m)
	if !linalg.EqualApprox(got, want, 1e-9) {
		t.Error("applyLeft != G_full · m")
	}
}

func TestApplyRightMatchesFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := linalg.RandomUnitary(8, rng)
	g := linalg.RandomUnitary(4, rng)
	full := linalg.Identity(8)
	applyLeft(full, g, []int{1, 2})
	want := linalg.Mul(m, full)
	got := m.Copy()
	applyRight(got, g, []int{1, 2})
	if !linalg.EqualApprox(got, want, 1e-9) {
		t.Error("applyRight != m · G_full")
	}
}

func TestSubspaceTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := linalg.RandomUnitary(8, rng)
	g := linalg.RandomUnitary(4, rng)
	full := linalg.Identity(8)
	applyLeft(full, g, []int{2, 1})
	want := linalg.Mul(a, full).Trace()
	got := subspaceTrace(a, g, []int{2, 1})
	if d := want - got; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
		t.Errorf("subspaceTrace = %v, want %v", got, want)
	}
}

func TestObjectiveGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := linalg.RandomUnitary(4, rng)
	a := newSeedAnsatz(2).withLayer(0, 1).withLayer(0, 1)
	obj := newObjective(a, target)
	params := make([]float64, a.nparams)
	for i := range params {
		params[i] = rng.Float64()*2 - 1
	}
	grad := make([]float64, a.nparams)
	f := obj.valueGrad(params, grad)
	if math.Abs(f-obj.value(params)) > 1e-12 {
		t.Errorf("valueGrad f=%g != value %g", f, obj.value(params))
	}
	const h = 1e-6
	for i := range params {
		orig := params[i]
		params[i] = orig + h
		fp := obj.value(params)
		params[i] = orig - h
		fm := obj.value(params)
		params[i] = orig
		num := (fp - fm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-5 {
			t.Errorf("grad[%d] = %g, numeric %g", i, grad[i], num)
		}
	}
}

func TestSynthesizeOneQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := linalg.RandomUnitary(2, rng)
	res, err := Synthesize(target, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Distance > 1e-6 {
		t.Errorf("1-qubit distance = %g", res.Best.Distance)
	}
	if res.Best.CNOTs != 0 {
		t.Errorf("1-qubit CNOTs = %d", res.Best.CNOTs)
	}
	// Verify the circuit actually implements the target.
	u := sim.Unitary(res.Best.Circuit)
	if d := linalg.HSDistance(target, u); d > 1e-6 {
		t.Errorf("reconstructed distance = %g", d)
	}
}

func TestSynthesizeCNOTTarget(t *testing.T) {
	target := gate.MustLookup("cx").Build(nil)
	res, err := Synthesize(target, Options{Seed: 3, MaxCNOTs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Distance > 1e-5 {
		t.Errorf("CX synthesis distance = %g", res.Best.Distance)
	}
	if res.Best.CNOTs > 1 {
		t.Errorf("CX synthesized with %d CNOTs, want <= 1", res.Best.CNOTs)
	}
}

func TestSynthesizeRandomTwoQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{Seed: 11, MaxCNOTs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Any 2-qubit unitary needs at most 3 CNOTs.
	if res.Best.Distance > 1e-4 {
		t.Errorf("2-qubit synthesis distance = %g with %d CNOTs", res.Best.Distance, res.Best.CNOTs)
	}
	u := sim.Unitary(res.Best.Circuit)
	if d := linalg.HSDistance(target, u); math.Abs(d-res.Best.Distance) > 1e-6 {
		t.Errorf("reported distance %g != recomputed %g", res.Best.Distance, d)
	}
}

func TestSynthesizeHarvestAllCollectsMultipleDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{Seed: 13, MaxCNOTs: 4, HarvestAll: true, Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	depths := map[int]bool{}
	for _, c := range res.Candidates {
		depths[c.CNOTs] = true
	}
	if len(depths) < 3 {
		t.Errorf("HarvestAll produced candidates at %d depths, want >= 3", len(depths))
	}
	// Candidates sorted by (CNOTs, Distance).
	for i := 1; i < len(res.Candidates); i++ {
		a, b := res.Candidates[i-1], res.Candidates[i]
		if a.CNOTs > b.CNOTs || (a.CNOTs == b.CNOTs && a.Distance > b.Distance) {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestSynthesizeDistancesDecreaseWithDepth(t *testing.T) {
	// Deeper trees have more degrees of freedom: the best distance at
	// depth d+1 should not be much worse than at depth d.
	rng := rand.New(rand.NewSource(8))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{Seed: 17, MaxCNOTs: 3, HarvestAll: true})
	if err != nil {
		t.Fatal(err)
	}
	best := map[int]float64{}
	for _, c := range res.Candidates {
		if d, ok := best[c.CNOTs]; !ok || c.Distance < d {
			best[c.CNOTs] = c.Distance
		}
	}
	if best[3] > best[0] {
		t.Errorf("distance at depth 3 (%g) worse than depth 0 (%g)", best[3], best[0])
	}
}

func TestSynthesizeRespectsCoupling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	target := linalg.RandomUnitary(8, rng)
	res, err := Synthesize(target, Options{
		Seed: 19, MaxCNOTs: 2, HarvestAll: true, Threshold: 1e-12,
		CouplingPairs: [][2]int{{0, 1}, {1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		for _, op := range c.Circuit.Ops {
			if op.Name != "cx" {
				continue
			}
			pr := [2]int{op.Qubits[0], op.Qubits[1]}
			if pr != [2]int{0, 1} && pr != [2]int{1, 2} {
				t.Fatalf("CNOT on disallowed pair %v", pr)
			}
		}
	}
}

func TestSynthesizeRejectsBadTargets(t *testing.T) {
	if _, err := Synthesize(linalg.New(3, 3), Options{}); err == nil {
		t.Error("non-power-of-two dimension accepted")
	}
	if _, err := Synthesize(linalg.New(4, 2), Options{}); err == nil {
		t.Error("non-square accepted")
	}
	notU := linalg.Identity(4)
	notU.Set(0, 0, 2)
	if _, err := Synthesize(notU, Options{}); err == nil {
		t.Error("non-unitary accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	target := linalg.RandomUnitary(4, rng)
	r1, err1 := Synthesize(target, Options{Seed: 23, MaxCNOTs: 2, HarvestAll: true})
	r2, err2 := Synthesize(target, Options{Seed: 23, MaxCNOTs: 2, HarvestAll: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Candidates) != len(r2.Candidates) || r1.Best.Distance != r2.Best.Distance {
		t.Error("Synthesize not deterministic for fixed seed")
	}
}

func TestSynthesizeKnownCircuitReduces(t *testing.T) {
	// A wasteful circuit: CX;CX cancels to identity — synthesis should
	// find a 0-CNOT solution.
	c := circuit.New(2)
	c.CX(0, 1)
	c.CX(0, 1)
	c.RZ(0, 0.3)
	target := sim.Unitary(c)
	res, err := Synthesize(target, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CNOTs != 0 || res.Best.Distance > 1e-6 {
		t.Errorf("redundant-CX circuit: best %d CNOTs at distance %g, want 0 CNOTs",
			res.Best.CNOTs, res.Best.Distance)
	}
}

func TestSynthesizeNegativeMaxCNOTs(t *testing.T) {
	// MaxCNOTs < 0 means rotation-only: every candidate has zero CNOTs.
	target := linalg.Kron(gate.RZMatrix(0.4), gate.RYMatrix(0.8))
	res, err := Synthesize(target, Options{MaxCNOTs: -1, HarvestAll: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.CNOTs != 0 {
			t.Fatalf("rotation-only synthesis produced %d CNOTs", c.CNOTs)
		}
	}
	if res.Best.Distance > 1e-6 {
		t.Errorf("separable target not reached: %g", res.Best.Distance)
	}
}

func TestAStarFindsExactTwoQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{
		Strategy: StrategyAStar, Threshold: 1e-5, MaxCNOTs: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Distance > 1e-4 {
		t.Errorf("A* 2-qubit distance = %g (%d CNOTs)", res.Best.Distance, res.Best.CNOTs)
	}
}

func TestAStarHarvestMatchesDepthRange(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	target := linalg.RandomUnitary(4, rng)
	res, err := Synthesize(target, Options{
		Strategy: StrategyAStar, MaxCNOTs: 3, HarvestAll: true,
		Threshold: 0.1, NodeBudget: 15, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.CNOTs > 3 {
			t.Fatalf("A* candidate exceeds MaxCNOTs: %d", c.CNOTs)
		}
	}
	depths := map[int]bool{}
	for _, c := range res.Candidates {
		depths[c.CNOTs] = true
	}
	if len(depths) < 2 {
		t.Errorf("A* harvested only %d depths", len(depths))
	}
}

func TestAStarDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	target := linalg.RandomUnitary(4, rng)
	opts := Options{Strategy: StrategyAStar, MaxCNOTs: 2, HarvestAll: true, NodeBudget: 10, Seed: 5}
	r1, err1 := Synthesize(target, opts)
	r2, err2 := Synthesize(target, opts)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Best.Distance != r2.Best.Distance || len(r1.Candidates) != len(r2.Candidates) {
		t.Error("A* not deterministic for fixed seed")
	}
}

func TestAStarRotationOnly(t *testing.T) {
	target := linalg.Kron(gate.RYMatrix(0.3), gate.RZMatrix(0.9))
	res, err := Synthesize(target, Options{Strategy: StrategyAStar, MaxCNOTs: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CNOTs != 0 || res.Best.Distance > 1e-6 {
		t.Errorf("A* rotation-only: %d CNOTs at %g", res.Best.CNOTs, res.Best.Distance)
	}
}

// tiedNodes returns harvest nodes for CNOT counts 0..depths-1 on two
// qubits: at every count, pairs of different circuits share one
// bit-equal distance.
func tiedNodes(depths int) [][]node {
	out := make([][]node, depths)
	a := newSeedAnsatz(2)
	for d := 0; d < depths; d++ {
		if d > 0 {
			a = a.withLayer(0, 1)
		}
		for k := 0; k < 4; k++ {
			params := make([]float64, a.nparams)
			for i := range params {
				params[i] = float64(d*100+k*10+i) / 7
			}
			out[d] = append(out[d], node{a: a, params: params, dist: 0.25 + float64(k/2)*0.125})
		}
	}
	return out
}

// TestHarvesterTiedCandidatesDeterministic feeds the same candidates,
// with exact distance ties at every CNOT count, to harvesters in
// different orders across CNOT counts (ties keep their relative order,
// as the search fixes it) and requires identical Candidates every time.
// Map iteration order must not leak into the harvest.
func TestHarvesterTiedCandidatesDeterministic(t *testing.T) {
	const depths = 6
	nodes := tiedNodes(depths)
	target := linalg.Identity(4)
	orders := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{2, 5, 0, 3, 1, 4},
	}
	describe := func(cands []Candidate) []string {
		var out []string
		for _, c := range cands {
			out = append(out, fmt.Sprintf("%d %v %s", c.CNOTs, c.Distance, c.Circuit))
		}
		return out
	}
	var want []string
	for rep := 0; rep < 20; rep++ {
		for _, order := range orders {
			h := &harvester{keep: 4}
			// Interleave the counts: one node from each count in turn.
			for k := 0; k < 4; k++ {
				for _, d := range order {
					h.add(nodes[d][k], target)
				}
			}
			res, ok := h.result()
			if !ok {
				t.Fatal("no candidates harvested")
			}
			got := describe(res.Candidates)
			if want == nil {
				want = got
				if len(want) != depths*4 {
					t.Fatalf("harvested %d candidates, want %d", len(want), depths*4)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rep %d order %v: candidates differ:\n%v\nwant:\n%v", rep, order, got, want)
			}
		}
	}
}
