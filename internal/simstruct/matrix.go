package simstruct

// Matrix is a dense square matrix stored row-major in a single allocation —
// the flattened form the sweep engine iterates so that one similarity sweep
// walks contiguous memory instead of chasing per-row pointers.
type Matrix struct {
	n    int
	data []float64
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, data: make([]float64, n*n)}
}

// newIdentityMatrix returns an n×n identity matrix.
func newIdentityMatrix(n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Equal reports whether both matrices have the same dimension and
// bit-identical entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.n != o.n {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// set writes the (i, j) entry.
func (m *Matrix) set(i, j int, v float64) { m.data[i*m.n+j] = v }
