package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/opt"
)

// Candidate is one synthesized circuit for a target unitary, with its
// Hilbert-Schmidt process distance and CNOT count. Candidates at many
// different CNOT counts are the raw material of QUEST's approximation
// space (Sec. 3.5).
type Candidate struct {
	// Circuit implements the approximation on local qubits 0..n-1.
	Circuit *circuit.Circuit
	// Distance is the HS process distance to the target.
	Distance float64
	// CNOTs is the circuit's CNOT count.
	CNOTs int
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Best is the candidate with the smallest process distance
	// (ties broken by fewer CNOTs).
	Best Candidate
	// Candidates holds every harvested solution, sorted by (CNOTs,
	// Distance). It always contains Best.
	Candidates []Candidate
	// Evaluations counts objective evaluations across the search.
	Evaluations int
}

// Options configures Synthesize. The zero value gives exact-style
// synthesis with defaults matching the paper's setup.
type Options struct {
	// Threshold is the HS-distance success threshold ε. Once a solution
	// below it is found the tree stops growing (unless HarvestAll).
	// Default 1e-6 ("exact" synthesis).
	Threshold float64
	// MaxCNOTs bounds the tree depth: no candidate will have more CNOTs
	// than this. 0 selects a universal default budget for n qubits; a
	// negative value means "no CNOT layers at all" (rotation-only seed).
	MaxCNOTs int
	// Beam is the number of tree nodes kept per depth. Default 2.
	Beam int
	// ReseedEvery implements LEAP prefix reseeding: every this many
	// layers the beam collapses to its best node. Default 3.
	ReseedEvery int
	// Restarts is the number of extra random-restart optimizations per
	// node beyond the warm start. Default 1.
	Restarts int
	// CouplingPairs restricts CNOT placement to the listed (control,
	// target) pairs. Nil allows every ordered pair with control < target.
	CouplingPairs [][2]int
	// HarvestAll keeps growing the tree to MaxCNOTs even after the
	// threshold is met, collecting approximations at every CNOT count —
	// QUEST's modification of LEAP.
	HarvestAll bool
	// KeepPerDepth is how many candidates are retained per CNOT count
	// (best by distance). Default 4.
	KeepPerDepth int
	// Seed makes the search deterministic. Default 1.
	Seed int64
	// Strategy selects the search policy: StrategyBeam (default) or
	// StrategyAStar (LEAP's best-first search).
	Strategy Strategy
	// NodeBudget bounds the number of node expansions for StrategyAStar
	// (default 40).
	NodeBudget int
}

// Canonical returns the options with every default resolved for an
// n-qubit target — the exact configuration SynthesizeCtx runs with.
// Callers that memoize synthesis results (internal/ucache) fingerprint
// this canonical form so that, e.g., Beam:0 and Beam:2 map to the same
// cache entry.
func (o Options) Canonical(n int) Options {
	o.defaults(n)
	return o
}

func (o *Options) defaults(n int) {
	if o.Threshold == 0 {
		o.Threshold = 1e-6
	}
	switch {
	case o.MaxCNOTs == 0:
		// A generous universal budget: 3·(4^n - 3n - 1)/4 CNOTs suffice
		// for any n-qubit unitary; round up a little.
		o.MaxCNOTs = (1<<(2*n))*3/4 + 1
	case o.MaxCNOTs < 0:
		o.MaxCNOTs = 0
	}
	if o.Beam == 0 {
		o.Beam = 2
	}
	if o.ReseedEvery == 0 {
		o.ReseedEvery = 3
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	if o.KeepPerDepth == 0 {
		o.KeepPerDepth = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.NodeBudget == 0 {
		o.NodeBudget = 40
	}
}

type node struct {
	a      *ansatz
	params []float64
	dist   float64
}

// Synthesize searches for circuits implementing the target unitary.
// The target dimension must be a power of two (2^n for n qubits, n ≥ 1).
func Synthesize(target *linalg.Matrix, opts Options) (Result, error) {
	return SynthesizeCtx(context.Background(), target, opts)
}

// SynthesizeCtx is Synthesize under a context. Cancellation is checked
// at every search-tree node and inside the optimizer inner loops; when
// ctx expires the candidates harvested so far are returned together with
// a typed, wrapped budget error (errors.Is ErrDeadline / ErrCancelled),
// so callers can keep partial approximation sets. When nothing was
// harvested yet, only the error is returned.
func SynthesizeCtx(ctx context.Context, target *linalg.Matrix, opts Options) (Result, error) {
	if !target.IsSquare() {
		return Result{}, fmt.Errorf("synth: target is %dx%d, want square", target.Rows, target.Cols)
	}
	n := 0
	for 1<<n < target.Rows {
		n++
	}
	if 1<<n != target.Rows || n < 1 {
		return Result{}, fmt.Errorf("synth: target dimension %d is not 2^n", target.Rows)
	}
	if !target.IsUnitary(1e-8) {
		return Result{}, fmt.Errorf("synth: target is not unitary")
	}
	opts.defaults(n)
	rng := rand.New(rand.NewSource(opts.Seed))

	pairs := opts.CouplingPairs
	if pairs == nil {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}

	h := &harvester{keep: opts.KeepPerDepth}
	evals := 0
	// One scratch pool serves every node: the searches optimize nodes
	// sequentially, so U† and the forward-chain matrices are shared.
	pool := newObjPool(target)

	optimizeNode := func(a *ansatz, warm []float64) (node, error) {
		best := node{a: a, dist: math.Inf(1)}
		if err := budget.Check(ctx); err != nil {
			return best, err
		}
		if err := faultinject.Fire("synth.optimize"); err != nil {
			return best, err
		}
		obj := newObjectiveFrom(pool, a)
		starts := 1 + opts.Restarts
		for s := 0; s < starts; s++ {
			x0 := make([]float64, a.nparams)
			if s == 0 && warm != nil {
				copy(x0, warm)
				// Perturb the fresh (uninitialized) tail slightly so new
				// rotations start near identity but break symmetry.
				for i := len(warm); i < len(x0); i++ {
					x0[i] = rng.NormFloat64() * 0.1
				}
			} else {
				for i := range x0 {
					x0[i] = rng.Float64()*2*math.Pi - math.Pi
				}
			}
			res, err := opt.LBFGSCtx(ctx, obj.valueGrad, x0, opt.LBFGSOptions{MaxIterations: 150})
			evals += res.Evaluations
			if res.F < best.dist*best.dist || best.params == nil {
				d := math.Sqrt(math.Max(0, res.F))
				if d < best.dist {
					best.dist = d
					best.params = res.X
				}
			}
			if err != nil {
				return best, err
			}
		}
		return best, nil
	}

	finish := func(stopErr error) (Result, error) {
		res, ok := h.result()
		res.Evaluations = evals
		if stopErr != nil {
			if !ok {
				return Result{}, fmt.Errorf("synth: %w", stopErr)
			}
			return res, fmt.Errorf("synth: %w", stopErr)
		}
		if !ok {
			return Result{}, fmt.Errorf("synth: no candidates produced")
		}
		return res, nil
	}

	if opts.Strategy == StrategyAStar {
		return finish(searchAStar(target, pairs, opts, optimizeNode, h))
	}

	// Depth 0: rotation-only seed.
	root, stopErr := optimizeNode(newSeedAnsatz(n), nil)
	h.add(root, target)
	if stopErr != nil {
		return finish(stopErr)
	}
	beam := []node{root}
	found := root.dist < opts.Threshold

depths:
	for depth := 1; depth <= opts.MaxCNOTs; depth++ {
		if found && !opts.HarvestAll {
			break
		}
		var children []node
		for _, parent := range beam {
			for _, pr := range pairs {
				child := parent.a.withLayer(pr[0], pr[1])
				nd, err := optimizeNode(child, parent.params)
				h.add(nd, target)
				if err != nil {
					stopErr = err
					break depths
				}
				children = append(children, nd)
				if nd.dist < opts.Threshold {
					found = true
				}
			}
		}
		sort.Slice(children, func(i, j int) bool { return children[i].dist < children[j].dist })
		width := opts.Beam
		if depth%opts.ReseedEvery == 0 {
			width = 1 // LEAP-style prefix fixing
		}
		if width > len(children) {
			width = len(children)
		}
		beam = children[:width]
	}

	return finish(stopErr)
}

// harvester retains the best candidates per CNOT count. Candidates with
// bit-equal distances at one CNOT count keep their insertion order, which
// the search fixes, so the harvest is deterministic.
type harvester struct {
	keep    int
	byDepth map[int][]Candidate
}

func (h *harvester) add(nd node, target *linalg.Matrix) {
	if nd.params == nil {
		return
	}
	if h.byDepth == nil {
		h.byDepth = map[int][]Candidate{}
	}
	c := Candidate{
		Circuit:  nd.a.toCircuit(nd.params),
		Distance: nd.dist,
		CNOTs:    nd.a.cnotCount(),
	}
	lst := append(h.byDepth[c.CNOTs], c)
	sort.SliceStable(lst, func(i, j int) bool { return lst[i].Distance < lst[j].Distance })
	if len(lst) > h.keep {
		lst = lst[:h.keep]
	}
	h.byDepth[c.CNOTs] = lst
}

// result assembles the harvested candidates. ok is false when nothing
// was harvested (e.g. the search was cancelled before the first node
// finished optimizing).
func (h *harvester) result() (_ Result, ok bool) {
	depths := make([]int, 0, len(h.byDepth))
	for d := range h.byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	// Each bucket is already distance-sorted, so concatenating them in
	// CNOT order gives the (CNOTs, Distance) order without reordering ties.
	var all []Candidate
	for _, d := range depths {
		all = append(all, h.byDepth[d]...)
	}
	if len(all) == 0 {
		return Result{}, false
	}
	best := all[0]
	for _, c := range all[1:] {
		if c.Distance < best.Distance-1e-15 {
			best = c
		}
	}
	return Result{Best: best, Candidates: all}, true
}
