package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/algos"
)

// savedArtifact synthesizes a small circuit and returns its saved
// encoding.
func savedArtifact(tb testing.TB) []byte {
	tb.Helper()
	art, err := Synthesize(context.Background(), algos.TFIM(3, 1, 0.1, 1, 1),
		Config{MaxSamples: 2, AnnealIterations: 50, SynthBeam: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

const (
	qasm2 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n"
	qasm3 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\n"
)

// TestLoadSynthesisRejectsMalformedBlocks: every shape violation in a
// hand-edited artifact is a load error, never a panic — questd's store
// treats the error as a miss and re-synthesizes.
func TestLoadSynthesisRejectsMalformedBlocks(t *testing.T) {
	saved := savedArtifact(t)
	cases := []struct {
		name   string
		mutate func(doc *synthArtifactJSON)
	}{
		{"candidates of 2 and 3 qubits", func(doc *synthArtifactJSON) {
			b := &doc.Blocks[0]
			b.Qubits, b.QASM = []int{0, 1}, qasm2
			b.Candidates = []candJSON{{QASM: qasm2}, {QASM: qasm3}}
			b.Raw = nil
		}},
		{"raw candidate of the wrong width", func(doc *synthArtifactJSON) {
			b := &doc.Blocks[0]
			b.Qubits, b.QASM = []int{0, 1}, qasm2
			b.Candidates = []candJSON{{QASM: qasm2}}
			b.Raw = []candJSON{{QASM: qasm3}}
		}},
		{"block size 0", func(doc *synthArtifactJSON) { doc.BlockSize = 0 }},
		{"block size above MaxBlockSize", func(doc *synthArtifactJSON) { doc.BlockSize = MaxBlockSize + 1 }},
		{"block wider than block size", func(doc *synthArtifactJSON) { doc.BlockSize = 1 }},
		{"circuit width differs from qubits", func(doc *synthArtifactJSON) {
			doc.Blocks[0].Qubits = doc.Blocks[0].Qubits[:1]
		}},
		{"repeated qubit", func(doc *synthArtifactJSON) {
			b := &doc.Blocks[0]
			b.Qubits = []int{0, 0}
			b.QASM = qasm2
		}},
		{"qubit outside the circuit", func(doc *synthArtifactJSON) {
			b := &doc.Blocks[0]
			b.Qubits = []int{0, 3}
			b.QASM = qasm2
		}},
		{"no qubits", func(doc *synthArtifactJSON) { doc.Blocks[0].Qubits = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var doc synthArtifactJSON
			if err := json.Unmarshal(saved, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Blocks) == 0 || len(doc.Blocks[0].Qubits) < 2 {
				t.Fatalf("test setup: first block %+v is too narrow", doc.Blocks)
			}
			tc.mutate(&doc)
			data, err := json.Marshal(&doc)
			if err != nil {
				t.Fatal(err)
			}
			if art, err := LoadSynthesis(bytes.NewReader(data)); err == nil {
				t.Fatalf("malformed artifact loaded: %d blocks", len(art.Blocks))
			} else if !strings.HasPrefix(err.Error(), "pipeline: load artifact") {
				t.Fatalf("error %q lacks the load-artifact prefix", err)
			}
		})
	}
}

// FuzzLoadSynthesis: LoadSynthesis never panics, and whatever it accepts
// saves to a canonical form — loading and saving that form again gives
// the same bytes.
func FuzzLoadSynthesis(f *testing.F) {
	saved := savedArtifact(f)
	f.Add(saved)
	f.Add(bytes.Replace(saved, []byte(`"block_size":3`), []byte(`"block_size":5`), 1))
	f.Add([]byte(`{"version":1,"block_size":3,"original":"` + strings.ReplaceAll(qasm3, "\n", `\n`) + `",` +
		`"blocks":[{"qubits":[0,1],"qasm":"` + strings.ReplaceAll(qasm2, "\n", `\n`) + `",` +
		`"candidates":[{"qasm":"` + strings.ReplaceAll(qasm2, "\n", `\n`) + `"},` +
		`{"qasm":"` + strings.ReplaceAll(qasm3, "\n", `\n`) + `"}]}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		art, err := LoadSynthesis(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := art.Save(&first); err != nil {
			t.Fatalf("save of a loaded artifact: %v", err)
		}
		again, err := LoadSynthesis(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of a saved artifact: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not canonical:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
