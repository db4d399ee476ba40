package lu

// sub8 applies x[n] -= f*b[k*bs+n] for n < 8 and each f = a[k] != 0 in
// ascending k.  On amd64 it is the SSE2 routine in sub8_amd64.s, which does
// no bounds checks: b must hold (len(a)-1)*bs+8 words.
//
//go:noescape
func sub8(x *[8]float64, a, b []float64, bs int)
