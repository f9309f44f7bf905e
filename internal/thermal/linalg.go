package thermal

import (
	"errors"
	"math"
)

// Dense linear algebra for the small matrices of a thermal network: the
// propagator's matrix exponential and the equilibrium solve. Matrices are
// row-major []float64.

var errSingular = errors.New("singular matrix")

// matMul sets dst = a·b for n×n matrices; dst must not alias a or b.
func matMul(dst, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

// solve overwrites the n×k right-hand side b with a⁻¹·b by Gaussian
// elimination with partial pivoting; a is destroyed.
func solve(a, b []float64, n, k int) error {
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[piv*n+col]) {
				piv = r
			}
		}
		if math.Abs(a[piv*n+col]) < 1e-300 {
			return errSingular
		}
		if piv != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[piv*n+c] = a[piv*n+c], a[col*n+c]
			}
			for c := 0; c < k; c++ {
				b[col*k+c], b[piv*k+c] = b[piv*k+c], b[col*k+c]
			}
		}
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / a[col*n+col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			for c := 0; c < k; c++ {
				b[r*k+c] -= f * b[col*k+c]
			}
		}
	}
	for col := n - 1; col >= 0; col-- {
		for c := 0; c < k; c++ {
			s := b[col*k+c]
			for j := col + 1; j < n; j++ {
				s -= a[col*n+j] * b[j*k+c]
			}
			b[col*k+c] = s / a[col*n+col]
		}
	}
	for _, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errSingular
		}
	}
	return nil
}

// padeOrder is the diagonal Padé approximant's degree. With the scaled
// matrix's infinity norm at most 1/2 its relative error is below 1e-16
// (Golub and Van Loan, Matrix Computations, Alg. 11.3.1).
const padeOrder = 6

// expm returns exp(a) for an n×n matrix by scaling and squaring with a
// diagonal Padé approximant.
func expm(a []float64, n int) ([]float64, error) {
	norm := 0.0
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			row += math.Abs(a[i*n+j])
		}
		norm = math.Max(norm, row)
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return nil, errors.New("non-finite matrix")
	}
	// Scale by 2^-sq so the norm is at most 1/2.
	sq := 0
	if norm > 0.5 {
		sq = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	x := make([]float64, n*n)
	scale := math.Ldexp(1, -sq)
	for i := range a {
		x[i] = a[i] * scale
	}
	num := identity(n)
	den := identity(n)
	pow := append([]float64(nil), x...)
	tmp := make([]float64, n*n)
	c := 1.0
	for k := 1; k <= padeOrder; k++ {
		if k > 1 {
			matMul(tmp, x, pow, n)
			pow, tmp = tmp, pow
		}
		c *= float64(padeOrder-k+1) / float64(k*(2*padeOrder-k+1))
		sign := 1.0
		if k%2 == 1 {
			sign = -1
		}
		for i := range pow {
			num[i] += c * pow[i]
			den[i] += sign * c * pow[i]
		}
	}
	if err := solve(den, num, n, n); err != nil {
		return nil, err
	}
	e := num
	for ; sq > 0; sq-- {
		matMul(tmp, e, e, n)
		e, tmp = tmp, e
	}
	return e, nil
}

func identity(n int) []float64 {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		m[i*n+i] = 1
	}
	return m
}
