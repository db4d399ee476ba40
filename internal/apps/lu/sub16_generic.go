//go:build !amd64

package lu

// sub16 applies x[n] -= f*b[k*bs+n] for n < 16 and each f = a[k] != 0 in
// ascending k, holding the sixteen sums in registers across the k loop: the
// loop is bound by the latency of its dependency chains, and sixteen chains
// keep sixteen subtractions in flight.  The explicit float64(…) rounds each
// product, so no GOARCH may fuse it with the subtraction.  On amd64 the
// same operations run in sub16_amd64.s.
func sub16(x *[16]float64, a, b []float64, bs int) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	x8, x9, x10, x11, x12, x13, x14, x15 := x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]
	for k, f := range a {
		if f != 0 {
			bk := (*[16]float64)(b[k*bs:])
			x0 -= float64(f * bk[0])
			x1 -= float64(f * bk[1])
			x2 -= float64(f * bk[2])
			x3 -= float64(f * bk[3])
			x4 -= float64(f * bk[4])
			x5 -= float64(f * bk[5])
			x6 -= float64(f * bk[6])
			x7 -= float64(f * bk[7])
			x8 -= float64(f * bk[8])
			x9 -= float64(f * bk[9])
			x10 -= float64(f * bk[10])
			x11 -= float64(f * bk[11])
			x12 -= float64(f * bk[12])
			x13 -= float64(f * bk[13])
			x14 -= float64(f * bk[14])
			x15 -= float64(f * bk[15])
		}
	}
	x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = x0, x1, x2, x3, x4, x5, x6, x7
	x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15] = x8, x9, x10, x11, x12, x13, x14, x15
}
