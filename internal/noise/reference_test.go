package noise

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// referenceTrajectory is the from-scratch trajectory loop: one noise
// trajectory of the circuit from |0...0>, every gate matrix rebuilt on
// every op, Pauli and damping draws taken live. It is the oracle the
// forking engine in runChunk must match bit for bit.
func referenceTrajectory(m Model, c *circuit.Circuit, rng *rand.Rand) linalg.Vector {
	state := sim.ZeroState(c.NumQubits)
	for _, op := range c.Ops {
		sim.ApplyOp(state, c.NumQubits, op)
		p := m.OneQubitError
		if len(op.Qubits) >= 2 {
			p = m.TwoQubitError
		}
		for _, q := range op.Qubits {
			if p > 0 && rng.Float64() < p {
				sim.ApplyMatrixOp(state, c.NumQubits, paulis[rng.Intn(3)], []int{q})
			}
			if m.DampingError > 0 {
				amplitudeDampingJump(state, c.NumQubits, q, m.DampingError, rng)
			}
		}
	}
	return state
}

// referenceRun is Model.Run computed serially with referenceTrajectory:
// a fresh RNG per trajectory, |amp|² summed per chunk in ascending t, the
// chunk partials reduced in chunk order, then readout error and shots.
func referenceRun(m Model, c *circuit.Circuit, opts Options) []float64 {
	opts.defaults()
	probs := make([]float64, 1<<c.NumQubits)
	if m.OneQubitError == 0 && m.TwoQubitError == 0 && m.DampingError == 0 {
		copy(probs, sim.Probabilities(c))
	} else {
		for lo := 0; lo < opts.Trajectories; lo += trajectoryChunk {
			partial := make([]float64, len(probs))
			for t := lo; t < min(lo+trajectoryChunk, opts.Trajectories); t++ {
				rng := rand.New(rand.NewSource(streamSeed(opts.Seed, int64(t))))
				for k, amp := range referenceTrajectory(m, c, rng) {
					partial[k] += real(amp)*real(amp) + imag(amp)*imag(amp)
				}
			}
			for k, v := range partial {
				probs[k] += v
			}
		}
		inv := 1 / float64(opts.Trajectories)
		for k := range probs {
			probs[k] *= inv
		}
	}
	if m.ReadoutError > 0 {
		probs = ApplyReadoutError(probs, c.NumQubits, m.ReadoutError)
	}
	if opts.Shots > 0 {
		probs = SampleShots(probs, opts.Shots, rand.New(rand.NewSource(streamSeed(opts.Seed, shotStream))))
	}
	return probs
}

// referenceDeviceRun is Device.Run with referenceRun as the simulator.
func referenceDeviceRun(t *testing.T, d *Device, c *circuit.Circuit, opts Options) []float64 {
	t.Helper()
	lowered := transpile.Lower(c)
	routed, layout, err := transpile.SabreRoute(lowered, d.Coupling, transpile.ChooseInitialLayout(lowered, d.Coupling))
	if err != nil {
		t.Fatal(err)
	}
	phys := referenceRun(d.Model, transpile.Lower(routed), opts)
	return transpile.PermuteDistribution(phys, layout, c.NumQubits)
}

// fuzzModels are the error models the fuzz target draws from: weak and
// strong uniform Pauli noise, both device models (Quito damps), and
// models with only one-qubit or only two-qubit Pauli errors.
var fuzzModels = []Model{
	Uniform(0.005),
	Uniform(0.3),
	Manila().Model,
	QuitoT().Model,
	{OneQubitError: 0.05},
	{TwoQubitError: 0.1},
}

var (
	fuzzTrajectories = []int{1, 7, 100, 203}
	fuzzParallelism  = []int{1, 3, 0}
	fuzzShots        = []int{0, 1000}
)

// fuzzGates are the gates random circuits are drawn from, sorted so a
// circuit seed always yields the same circuit: fixed and parameterized
// one-, two- and three-qubit gates.
var fuzzGates = func() []string {
	names := gate.Names()
	sort.Strings(names)
	return names
}()

// randomCircuit builds a random circuit on n qubits with ops gates.
func randomCircuit(seed int64, n, ops int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for len(c.Ops) < ops {
		spec := gate.MustLookup(fuzzGates[rng.Intn(len(fuzzGates))])
		if spec.Qubits > n {
			continue
		}
		qubits := rng.Perm(n)[:spec.Qubits]
		var params []float64
		for i := 0; i < spec.Params; i++ {
			params = append(params, (rng.Float64()*2-1)*math.Pi)
		}
		c.MustAppend(spec.Name, qubits, params)
	}
	return c
}

// FuzzRunMatchesReference checks the forking trajectory engine against
// the from-scratch oracle, bit for bit, over random circuits, every
// fuzzModels entry, and the trajectory, parallelism and shot settings
// above. With device set the circuit runs on Manila or Quito through
// routing instead.
func FuzzRunMatchesReference(f *testing.F) {
	for mi := range fuzzModels {
		f.Add(int64(mi), uint8(2+mi%5), uint8(12+5*mi), uint8(mi), uint8(mi), uint8(mi), uint8(mi), int64(100+mi), false)
	}
	f.Add(int64(50), uint8(4), uint8(30), uint8(0), uint8(2), uint8(0), uint8(1), int64(7), true)
	f.Add(int64(51), uint8(5), uint8(25), uint8(1), uint8(3), uint8(1), uint8(0), int64(8), true)
	f.Add(int64(52), uint8(6), uint8(60), uint8(1), uint8(3), uint8(2), uint8(1), int64(9), false)
	f.Add(int64(53), uint8(3), uint8(40), uint8(3), uint8(2), uint8(2), uint8(1), int64(10), false)
	f.Fuzz(func(t *testing.T, circSeed int64, nq, nops, model, trajs, workers, shots uint8, seed int64, device bool) {
		n := 2 + int(nq)%5
		c := randomCircuit(circSeed, n, 1+int(nops)%64)
		opts := Options{
			Trajectories: fuzzTrajectories[int(trajs)%len(fuzzTrajectories)],
			Parallelism:  fuzzParallelism[int(workers)%len(fuzzParallelism)],
			Shots:        fuzzShots[int(shots)%len(fuzzShots)],
			Seed:         seed,
		}
		var got, want []float64
		if device {
			d := Manila()
			if model%2 == 1 {
				d = QuitoT()
			}
			if n > d.Coupling.NumQubits {
				c = randomCircuit(circSeed, d.Coupling.NumQubits, 1+int(nops)%64)
			}
			var err error
			if got, err = d.Run(c, opts); err != nil {
				t.Fatal(err)
			}
			want = referenceDeviceRun(t, d, c, opts)
		} else {
			m := fuzzModels[int(model)%len(fuzzModels)]
			got = m.Run(c, opts)
			want = referenceRun(m, c, opts)
		}
		if len(got) != len(want) {
			t.Fatalf("len = %d, reference %d", len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("state %d: %x, reference %x (%+v)", k, got[k], want[k], opts)
			}
		}
	})
}
