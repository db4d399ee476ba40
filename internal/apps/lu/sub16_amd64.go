package lu

// sub16 applies x[n] -= f*b[k*bs+n] for n < 16 and each f = a[k] != 0 in
// ascending k.  On amd64 it is the SSE2 routine in sub16_amd64.s, which does
// no bounds checks: b must hold (len(a)-1)*bs+16 words.
//
//go:noescape
func sub16(x *[16]float64, a, b []float64, bs int)
