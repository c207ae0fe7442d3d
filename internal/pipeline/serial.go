package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/synth"
)

// The on-disk SynthesisArtifact encoding: JSON with circuits as OpenQASM
// 2.0 (the writer prints parameters with %.17g, so float64 round-trips
// bit-exactly) and distances as plain JSON numbers (encoding/json emits
// the shortest representation that round-trips a float64 exactly).
// Unitaries and pairwise candidate distances are NOT stored: both are
// deterministic functions of the circuits and are recomputed on load, so
// a loaded artifact Reselects bit-identically to the artifact it was
// saved from.

const synthArtifactVersion = 1

type candJSON struct {
	QASM     string  `json:"qasm"`
	Distance float64 `json:"distance"`
	CNOTs    int     `json:"cnots"`
}

type blockJSON struct {
	Qubits     []int      `json:"qubits"`
	QASM       string     `json:"qasm"`
	Candidates []candJSON `json:"candidates"`
	// Raw is the unpruned harvest Reselect re-filters; empty for
	// degraded blocks.
	Raw []candJSON `json:"raw,omitempty"`
}

type synthArtifactJSON struct {
	Version      int           `json:"version"`
	Key          string        `json:"key"`
	PartitionKey string        `json:"partition_key"`
	BlockSize    int           `json:"block_size"`
	Epsilon      float64       `json:"epsilon"`
	ThresholdCap float64       `json:"threshold_cap"`
	Seed         int64         `json:"seed"`
	Threshold    float64       `json:"threshold"`
	Original     string        `json:"original"`
	Blocks       []blockJSON   `json:"blocks"`
	Degradations []Degradation `json:"degradations,omitempty"`
	ElapsedNS    int64         `json:"elapsed_ns"`
	PartElapsed  int64         `json:"partition_elapsed_ns"`
}

func encodeCands(cands []synth.Candidate) []candJSON {
	out := make([]candJSON, len(cands))
	for i, c := range cands {
		out[i] = candJSON{QASM: qasm.Write(c.Circuit), Distance: c.Distance, CNOTs: c.CNOTs}
	}
	return out
}

// decodeCands parses candidates that must all act on width qubits.
func decodeCands(cands []candJSON, width int) ([]synth.Candidate, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	out := make([]synth.Candidate, len(cands))
	for i, c := range cands {
		circ, err := parseWidth(c.QASM, width)
		if err != nil {
			return nil, fmt.Errorf("candidate %d: %w", i, err)
		}
		out[i] = synth.Candidate{Circuit: circ, Distance: c.Distance, CNOTs: c.CNOTs}
	}
	return out, nil
}

// parseWidth parses a block circuit that must act on exactly width qubits.
func parseWidth(src string, width int) (*circuit.Circuit, error) {
	c, err := qasm.Parse(src)
	if err == nil && c.NumQubits != width {
		err = fmt.Errorf("%d-qubit circuit in a %d-qubit block", c.NumQubits, width)
	}
	return c, err
}

// decodeBlock rebuilds one block after checking its shape: 1..blockSize
// distinct qubits of an n-qubit circuit, with the block circuit and every
// candidate exactly that wide.
func decodeBlock(bj blockJSON, cfg Config, n int) (BlockApproximations, error) {
	var ba BlockApproximations
	width := len(bj.Qubits)
	if width < 1 || width > cfg.BlockSize {
		return ba, fmt.Errorf("%d qubits, block size is %d", width, cfg.BlockSize)
	}
	seen := make(map[int]bool, width)
	for _, q := range bj.Qubits {
		if q < 0 || q >= n || seen[q] {
			return ba, fmt.Errorf("qubits %v are not distinct qubits of a %d-qubit circuit", bj.Qubits, n)
		}
		seen[q] = true
	}
	bc, err := parseWidth(bj.QASM, width)
	if err != nil {
		return ba, err
	}
	if ba.Candidates, err = decodeCands(bj.Candidates, width); err != nil {
		return ba, err
	}
	if ba.all, err = decodeCands(bj.Raw, width); err != nil {
		return ba, fmt.Errorf("raw %w", err)
	}
	ba.Block = partition.Block{Qubits: bj.Qubits, Circuit: bc}
	ba.Unitary = sim.Unitary(bc)
	ba.pairDist = pairDistances(ba.Candidates, cfg.Parallelism)
	return ba, nil
}

// Save writes the artifact in its portable JSON encoding, so an expensive
// synthesis pass can be computed once (per suite, per CI shard, per
// machine) and re-selected against many configurations later.
func (art *SynthesisArtifact) Save(w io.Writer) error {
	doc := synthArtifactJSON{
		Version:      synthArtifactVersion,
		Key:          art.Key,
		PartitionKey: art.Partition.Key,
		BlockSize:    art.Cfg.BlockSize,
		Epsilon:      art.Cfg.Epsilon,
		ThresholdCap: art.Cfg.ThresholdCap,
		Seed:         art.Cfg.Seed,
		Threshold:    art.Partition.Threshold,
		Original:     qasm.Write(art.Partition.Original),
		Degradations: art.Degradations,
		ElapsedNS:    art.Elapsed.Nanoseconds(),
		PartElapsed:  art.Partition.Elapsed.Nanoseconds(),
	}
	for _, ba := range art.Blocks {
		doc.Blocks = append(doc.Blocks, blockJSON{
			Qubits:     ba.Block.Qubits,
			QASM:       qasm.Write(ba.Block.Circuit),
			Candidates: encodeCands(ba.Candidates),
			Raw:        encodeCands(ba.all),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// LoadSynthesis reads an artifact saved with Save. Circuits, unitaries
// and pairwise candidate distances are reconstructed deterministically;
// the result Reselects bit-identically to the saved artifact. A malformed
// artifact — blocks wider than block_size or MaxBlockSize, qubits outside
// the circuit, candidates of the wrong width — is an error, never a
// panic.
func LoadSynthesis(r io.Reader) (*SynthesisArtifact, error) {
	var doc synthArtifactJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("pipeline: load artifact: %w", err)
	}
	if doc.Version != synthArtifactVersion {
		return nil, fmt.Errorf("pipeline: load artifact: unsupported version %d", doc.Version)
	}
	if err := checkBlockSize(doc.BlockSize); err != nil {
		return nil, fmt.Errorf("pipeline: load artifact: %w", err)
	}
	orig, err := qasm.Parse(doc.Original)
	if err != nil {
		return nil, fmt.Errorf("pipeline: load artifact: original: %w", err)
	}
	cfg := Config{
		BlockSize:    doc.BlockSize,
		Epsilon:      doc.Epsilon,
		ThresholdCap: doc.ThresholdCap,
		Seed:         doc.Seed,
	}
	cfg.defaults()
	art := &SynthesisArtifact{
		Partition: &PartitionArtifact{
			Original:  orig,
			Threshold: doc.Threshold,
			Key:       doc.PartitionKey,
			Elapsed:   time.Duration(doc.PartElapsed),
		},
		Degradations: doc.Degradations,
		Cfg:          cfg,
		Key:          doc.Key,
		Elapsed:      time.Duration(doc.ElapsedNS),
	}
	for i, bj := range doc.Blocks {
		ba, err := decodeBlock(bj, cfg, orig.NumQubits)
		if err != nil {
			return nil, fmt.Errorf("pipeline: load artifact: block %d: %w", i, err)
		}
		art.Blocks = append(art.Blocks, ba)
		art.Partition.Blocks = append(art.Partition.Blocks, ba.Block)
	}
	return art, nil
}
