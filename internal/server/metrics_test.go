package server

import (
	"testing"
	"time"
)

// Every duration from 1µs to 100s lands in the bucket whose bounds
// contain it, so the interpolated p50 of identical samples falls
// inside that bucket instead of up to 2× below the sample.
func TestHistogramBucketsContainObservations(t *testing.T) {
	var durs []time.Duration
	for k := 0; k < histBuckets; k++ {
		p := time.Duration(1<<k) * time.Microsecond
		durs = append(durs, p-time.Nanosecond, p, p+time.Nanosecond, p+p/2)
	}
	for d := time.Microsecond; d <= 100*time.Second; d = d*13/10 + 7 {
		durs = append(durs, d)
	}
	durs = append(durs, 3*time.Millisecond, 100*time.Millisecond, 100*time.Second)

	for _, d := range durs {
		if d < time.Microsecond || d > 100*time.Second {
			continue
		}
		h := NewHistogram()
		for i := 0; i < 100; i++ {
			h.Observe(d)
		}
		b := -1
		for i := range h.buckets {
			if h.buckets[i].Load() != 0 {
				b = i
				break
			}
		}
		if b < 0 || h.buckets[b].Load() != 100 {
			t.Fatalf("%v: 100 identical samples not in one bucket", d)
		}
		lo, hi := bucketBoundsUs(b)
		us := float64(d) / float64(time.Microsecond)
		if us <= lo || us > hi {
			t.Errorf("%v landed in bucket %d = (%gµs, %gµs]", d, b, lo, hi)
		}
		if p50 := h.Quantile(0.5); p50 <= lo/1000 || p50 > hi/1000 {
			t.Errorf("%v: p50 %.4fms outside its bucket (%gms, %gms]", d, p50, lo/1000, hi/1000)
		}
	}
}
