// Package tensor provides the minimal dense linear algebra the training
// runtime needs: row-major float64 matrices with the forward and backward
// primitives of an MLP block (matmul in its three orientations, bias, GELU).
// Everything is deterministic, which lets the runtime tests assert exact
// equivalence between schedules.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps an existing slice (no copy). len(data) must be rows*cols.
func FromData(rows, cols int, data []float64) Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %dx%d", len(data), rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (m Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears the matrix in place.
func (m Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// RandInit fills the matrix with scaled Gaussian entries (std = scale).
func (m Matrix) RandInit(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
}

// MatMul computes a @ b into a new matrix. Panics on shape mismatch.
func MatMul(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpy(orow, av, b.Data[k*b.Cols:(k+1)*b.Cols])
		}
	}
	return out
}

// MatMulTransB computes a @ b^T into a new matrix (used for dX = dY @ W^T).
func MatMulTransB(a, b Matrix) Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTB shape %dx%d @ (%dx%d)^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := range orow {
			orow[j] = dot(arow, b.Data[j*b.Cols:(j+1)*b.Cols])
		}
	}
	return out
}

// MatMulTransAInto computes a^T @ b and accumulates into out (used for
// dW += X^T @ dY during gradient accumulation).
func MatMulTransAInto(out, a, b Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA shape (%dx%d)^T @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpy(out.Data[i*out.Cols:(i+1)*out.Cols], av, brow)
		}
	}
}

// The matmul kernels are built on axpy and dot. Both give each output
// element exactly the operations of a plain loop, in the same order, so
// results are bit-identical to it. Both process four elements per
// iteration over slices resliced to one length, so the compiler drops the
// bounds checks from the loop bodies; the loops are then short and regular
// enough that their speed does not hinge on where the linker places them.

// axpy adds a*x[j] to y[j] for every j < len(y); x must be at least as
// long as y.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for len(y) >= 4 && len(x) >= 4 {
		y[0] += a * x[0]
		y[1] += a * x[1]
		y[2] += a * x[2]
		y[3] += a * x[3]
		y, x = y[4:], x[4:]
	}
	x = x[:len(y)]
	for j := range y {
		y[j] += a * x[j]
	}
}

// dot returns the sum of a[k]*b[k] over k < len(a), added in order from
// zero; b must be at least as long as a.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for len(a) >= 4 && len(b) >= 4 {
		s += a[0] * b[0]
		s += a[1] * b[1]
		s += a[2] * b[2]
		s += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	b = b[:len(a)]
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

// AddBias adds a row vector to every row of m in place.
func AddBias(m Matrix, bias []float64) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// BiasGradInto accumulates the column sums of dY into db.
func BiasGradInto(db []float64, dy Matrix) {
	if len(db) != dy.Cols {
		panic("tensor: bias grad length mismatch")
	}
	for i := 0; i < dy.Rows; i++ {
		row := dy.Data[i*dy.Cols : (i+1)*dy.Cols]
		for j := range row {
			db[j] += row[j]
		}
	}
}

// AddInto accumulates src into dst element-wise.
func AddInto(dst, src Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: add shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit, returning
// a new matrix.
func GELU(m Matrix) Matrix {
	out := New(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = gelu(x)
	}
	return out
}

// GELUBackward computes dL/dx from dL/dy and the pre-activation input x,
// returning a new matrix.
func GELUBackward(dy, x Matrix) Matrix {
	if dy.Rows != x.Rows || dy.Cols != x.Cols {
		panic("tensor: gelu backward shape mismatch")
	}
	out := New(dy.Rows, dy.Cols)
	for i := range dy.Data {
		out.Data[i] = dy.Data[i] * geluGrad(x.Data[i])
	}
	return out
}

const (
	sqrt2OverPi = 0.7978845608028654 // sqrt(2/pi)
	geluC       = 0.044715
)

func gelu(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(sqrt2OverPi*(x+geluC*x*x*x)))
}

func geluGrad(x float64) float64 {
	inner := sqrt2OverPi * (x + geluC*x*x*x)
	t := math.Tanh(inner)
	dInner := sqrt2OverPi * (1 + 3*geluC*x*x)
	return 0.5*(1+t) + 0.5*x*(1-t*t)*dInner
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// MaxAbsDiffSlice is MaxAbsDiff for raw slices.
func MaxAbsDiffSlice(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Rows returns the half-open row slice [lo, hi) of m as a view (no copy).
func (m Matrix) RowSlice(lo, hi int) Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
