package linalg

import (
	"math/rand"
	"testing"
)

func TestApplyLeftIntoMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	for n := 3; n <= 5; n++ {
		m := RandomUnitary(1<<n, rng)
		g1 := RandomUnitary(2, rng)
		g2 := RandomUnitary(4, rng)

		dst := New(1<<n, 1<<n)
		ApplyLeft1Into(dst, m, (*[4]complex128)(g1.Data), n-1)
		inplace := m.Copy()
		ApplyLeft1(inplace, (*[4]complex128)(g1.Data), n-1)
		for i := range dst.Data {
			if dst.Data[i] != inplace.Data[i] {
				t.Fatalf("n=%d: ApplyLeft1Into entry %d: %v != %v", n, i, dst.Data[i], inplace.Data[i])
			}
		}

		ApplyLeft2Into(dst, m, (*[16]complex128)(g2.Data), n-1, 0)
		inplace = m.Copy()
		ApplyLeft2(inplace, (*[16]complex128)(g2.Data), n-1, 0)
		for i := range dst.Data {
			if dst.Data[i] != inplace.Data[i] {
				t.Fatalf("n=%d: ApplyLeft2Into entry %d: %v != %v", n, i, dst.Data[i], inplace.Data[i])
			}
		}
	}
}

func TestLayerGradContractMatchesFullTrace(t *testing.T) {
	// Contract semantics: with P = A·B, trace2(W, D) = Tr(P·(D⊗Rt)·CX_full)
	// and trace2(V, D) = Tr(P·(Rc⊗D)·CX_full), for any 2x2 factor D. Build
	// the reference from full-space products.
	kron2 := func(x, y *[4]complex128) *Matrix {
		m := New(4, 4)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for k := 0; k < 2; k++ {
					for l := 0; l < 2; l++ {
						m.Data[(i*2+k)*4+j*2+l] = x[i*2+j] * y[k*2+l]
					}
				}
			}
		}
		return m
	}
	trace2 := func(w, x *[4]complex128) complex128 {
		return w[0]*x[0] + w[1]*x[2] + w[2]*x[1] + w[3]*x[3]
	}
	for _, n := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(530 + n)))
		a := RandomUnitary(1<<n, rng)
		c := RandomUnitary(1<<n, rng)
		p := Mul(a, c)
		rand4 := func() *[4]complex128 {
			var r [4]complex128
			for i := range r {
				r[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			return &r
		}
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(n)
			qHi, qLo := perm[0], perm[1]
			rc, rt := rand4(), rand4()
			var w, v [4]complex128
			LayerGradContract(a, c, qHi, qLo, rc, rt, &w, &v)
			for d := 0; d < 2; d++ {
				dm := rand4()
				// dL = (D⊗Rt)·CX: CX on the right swaps columns 2 and 3.
				mkL := func(x, y *[4]complex128) *Matrix {
					l := kron2(x, y)
					for r := 0; r < 4; r++ {
						l.Data[r*4+2], l.Data[r*4+3] = l.Data[r*4+3], l.Data[r*4+2]
					}
					return expand(n, l, []int{qHi, qLo})
				}
				wantW := Mul(p, mkL(dm, rt)).Trace()
				if g := trace2(&w, dm); cabs2(g-wantW) > 1e-18*cabs2(wantW)+1e-18 {
					t.Fatalf("n=%d q=(%d,%d): control contract %v, want %v", n, qHi, qLo, g, wantW)
				}
				wantV := Mul(p, mkL(rc, dm)).Trace()
				if g := trace2(&v, dm); cabs2(g-wantV) > 1e-18*cabs2(wantV)+1e-18 {
					t.Fatalf("n=%d q=(%d,%d): target contract %v, want %v", n, qHi, qLo, g, wantV)
				}
			}
		}
	}
}

func cabs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

func TestGatherIdentityBlocks1MatchesGatherProd(t *testing.T) {
	// GatherIdentityBlocks1 is GatherProdBlocks1 with a = I, entry for entry.
	for _, n := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(540 + n)))
		b := RandomUnitary(1<<n, rng)
		ident := Identity(1 << n)
		for q := 0; q < n; q++ {
			want := make([]complex128, 2*(1<<n))
			got := make([]complex128, 2*(1<<n))
			GatherProdBlocks1(want, ident, b, q)
			GatherIdentityBlocks1(got, b, q)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d entry %d: %v != %v", n, q, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEmbedGate1MatchesApplyToIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(550))
	for n := 1; n <= 4; n++ {
		g := RandomUnitary(2, rng)
		for q := 0; q < n; q++ {
			want := New(1<<n, 1<<n)
			ApplyLeft1Into(want, Identity(1<<n), (*[4]complex128)(g.Data), q)
			got := New(1<<n, 1<<n)
			// Pre-dirty dst: EmbedGate1 must overwrite every entry.
			for i := range got.Data {
				got.Data[i] = complex(1, 1)
			}
			EmbedGate1(got, (*[4]complex128)(g.Data), q)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d q=%d entry %d: %v != %v", n, q, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
