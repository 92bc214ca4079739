package miniapps

import (
	"earlybird/internal/omp"
	"earlybird/internal/simclock"
	"earlybird/internal/trace"
)

// MiniFEApp is the finite-element proxy: a 27-point-stencil sparse matrix
// in CSR format over an nx x ny x nz hexahedral mesh, with the timed
// region being the matrix-vector product y = A x — "the linear algebra
// function of highest order" per Section 3.2 (the paper ran 200^3 matrix
// elements per process).
type MiniFEApp struct {
	nx, ny, nz int
	rowPtr     []int32
	colIdx     []int32
	vals       []float64
	x, y       []float64
}

// NewMiniFE assembles the stencil matrix for the given mesh dimensions.
func NewMiniFE(nx, ny, nz int) *MiniFEApp {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("miniapps: mesh dimensions must be positive")
	}
	n := nx * ny * nz
	a := &MiniFEApp{nx: nx, ny: ny, nz: nz}
	a.rowPtr = make([]int32, n+1)
	a.colIdx = make([]int32, 0, n*27)
	a.vals = make([]float64, 0, n*27)
	idx := func(i, j, k int) int32 { return int32((k*ny+j)*nx + i) }
	nnz := int32(0)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := idx(i, j, k)
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
								continue
							}
							col := idx(ii, jj, kk)
							v := -1.0
							if col == row {
								v = 26.0 // diagonally dominant stencil
							}
							a.colIdx = append(a.colIdx, col)
							a.vals = append(a.vals, v)
							nnz++
						}
					}
				}
				a.rowPtr[row+1] = nnz
			}
		}
	}
	a.x = make([]float64, n)
	a.y = make([]float64, n)
	for i := range a.x {
		a.x[i] = 1.0 + float64(i%7)*0.125
	}
	return a
}

// Name implements App.
func (a *MiniFEApp) Name() string { return "minife" }

// RunIteration implements App: one instrumented mat-vec. Rows are shared
// dynamically in plane-sized chunks, mirroring MiniFE's outer loop over
// problem-space planes (the source of the paper's early arrivals).
func (a *MiniFEApp) RunIteration(pool *omp.Pool, clock simclock.Clock, rec *trace.Recorder, iter int) {
	planeRows := a.nx * a.ny
	instrumented(pool, clock, rec, iter, func(tc *omp.ThreadContext) {
		tc.For(a.nz, omp.Dynamic, 1, func(plane int) {
			lo := plane * planeRows
			hi := lo + planeRows
			for row := lo; row < hi; row++ {
				sum := 0.0
				for p := a.rowPtr[row]; p < a.rowPtr[row+1]; p++ {
					sum += a.vals[p] * a.x[a.colIdx[p]]
				}
				a.y[row] = sum
			}
		})
	})
}
