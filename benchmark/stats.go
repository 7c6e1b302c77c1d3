package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// fast5 is the mean of the five smallest values (of all of them when
// there are fewer). Host noise on a shared machine only adds time, so
// the fastest laps are the ones closest to what the code costs; the
// median of the same laps moved 41 % between identical runs where fast5
// moved 13 % (README, "Why fast5").
func fast5(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) > 5 {
		s = s[:5]
	}
	return mean(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile (0..100) by linear
// interpolation between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance procedure in the README uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is an FNV-64a accumulator over the simulated answers.
type digest struct{ h uint64 }

func newDigest() digest {
	return digest{h: 14695981039346656037}
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

func (d *digest) bytes(b []byte) {
	f := fnv.New64a()
	f.Write(b)
	d.u64(f.Sum64())
}
