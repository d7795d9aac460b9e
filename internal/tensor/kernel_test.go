package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randSparse returns a rows x cols matrix of Gaussian entries, about a
// fifth of them zero, so the kernels' zero skip is exercised.
func randSparse(rng *rand.Rand, rows, cols int) Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Intn(5) != 0 {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// sameBits reports whether two matrices hold bit-identical elements.
func sameBits(a, b Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestKernelsMatchReference checks MatMul, MatMulTransB and
// MatMulTransAInto against plain triple loops, bit for bit, on random
// shapes whose lengths are mostly not multiples of four (the kernels'
// unroll width) and on matrices with zero entries. Every output element
// must see the same operations in the same order: the sum over k in
// ascending order, from zero (MatMul, MatMulTransB) or from out's prior
// value (MatMulTransAInto), skipping the terms whose left factor is zero
// where the kernel does.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		n, k, m := rng.Intn(14), rng.Intn(14), rng.Intn(14)

		a, b := randSparse(rng, n, k), randSparse(rng, k, m)
		want := New(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				var s float64
				for l := 0; l < k; l++ {
					if av := a.At(i, l); av != 0 {
						s += av * b.At(l, j)
					}
				}
				want.Set(i, j, s)
			}
		}
		if got := MatMul(a, b); !sameBits(got, want) {
			t.Fatalf("MatMul %dx%d @ %dx%d differs from the plain loop", n, k, k, m)
		}

		bt := randSparse(rng, m, k)
		want = New(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				var s float64
				for l := 0; l < k; l++ {
					s += a.At(i, l) * bt.At(j, l)
				}
				want.Set(i, j, s)
			}
		}
		if got := MatMulTransB(a, bt); !sameBits(got, want) {
			t.Fatalf("MatMulTransB %dx%d @ (%dx%d)^T differs from the plain loop", n, k, m, k)
		}

		at, bb := randSparse(rng, n, k), randSparse(rng, n, m)
		out := randSparse(rng, k, m)
		want = out.Clone()
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				s := want.At(i, j)
				for l := 0; l < n; l++ {
					if av := at.At(l, i); av != 0 {
						s += av * bb.At(l, j)
					}
				}
				want.Set(i, j, s)
			}
		}
		if MatMulTransAInto(out, at, bb); !sameBits(out, want) {
			t.Fatalf("MatMulTransAInto (%dx%d)^T @ %dx%d differs from the plain loop", n, k, n, m)
		}
	}
}

// BenchmarkKernels runs the six kernel calls of one MLP block's forward and
// backward pass at the runtime benchmark's shapes (micro-batch 4, Dim 64,
// Hidden 256): x (4x64) @ W1 (64x256) and h (4x256) @ W2 (256x64) forward;
// dW2 += h^T @ dy, dh = dy @ W2^T, dW1 += x^T @ dz1 and dx = dz1 @ W1^T
// backward.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, h := randSparse(rng, 4, 64), randSparse(rng, 4, 256)
	w1, w2 := randSparse(rng, 64, 256), randSparse(rng, 256, 64)
	gw1, gw2 := New(64, 256), New(256, 64)
	for b.Loop() {
		MatMul(x, w1)
		MatMul(h, w2)
		MatMulTransAInto(gw2, h, x)
		MatMulTransB(x, w2)
		MatMulTransAInto(gw1, x, h)
		MatMulTransB(h, w1)
	}
}
