package main

import (
	"slices"
	"time"
)

// tailSupport is how many samples must lie beyond a percentile for it to be
// reported.
const tailSupport = 10

// sliceLen is the length of the slices the steady metrics are medians over.
const sliceLen = time.Second

// sample is one acknowledged op of the measured window: when its reply
// arrived (nanoseconds since the load's epoch), and its latency in
// nanoseconds (from the send in a closed loop, from the due time in the open
// loop). Each client appends to its own slice; they are merged and sorted
// after the window.
type sample struct {
	end int64
	lat int64
	put bool
}

// samples is a sorted set of raw latencies in nanoseconds. Reported
// percentiles are read from it directly; stats.Histogram's 10 % buckets are
// never involved.
type samples []int64

// merge concatenates sample slices and sorts them.
func merge(parts ...[]int64) samples {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(samples, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q < 1) and whether at least
// tailSupport samples lie beyond it.
func (s samples) quantile(q float64) (ns int64, supported bool) {
	if len(s) == 0 {
		return 0, false
	}
	rank := min(int(q*float64(len(s))), len(s)-1)
	return s[rank], len(s)-1-rank >= tailSupport
}

// us returns the q-quantile in microseconds.
func (s samples) us(q float64) (float64, bool) {
	ns, ok := s.quantile(q)
	return float64(ns) / 1e3, ok
}

// median of a small set of float values (slices, set-up times, probe repeats).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// recording is the merged samples of a window.
type recording struct {
	get, put, all samples
	// Per whole slice of the window: acknowledged ops per second and the
	// latency quantiles of the ops whose reply arrived in that slice. The
	// gated timing metrics are medians over these, so one disturbed second
	// (a collection, a scheduling hiccup of the host) does not move them.
	sliceRate, sliceP50, sliceP90, slicePutP50 []float64
}

// newRecording merges the clients' samples of a window that began at start
// (nanoseconds since the load's epoch) and was meant to last window.
func newRecording(parts [][]sample, start int64, window time.Duration) *recording {
	nslices := max(int(window/sliceLen), 1)
	width := window / time.Duration(nslices)
	type bucket struct{ all, put []int64 }
	buckets := make([]bucket, nslices)
	var get, put []int64
	for _, part := range parts {
		for _, s := range part {
			if s.put {
				put = append(put, s.lat)
			} else {
				get = append(get, s.lat)
			}
			if i := int((s.end - start) / int64(width)); s.end >= start && i < nslices {
				buckets[i].all = append(buckets[i].all, s.lat)
				if s.put {
					buckets[i].put = append(buckets[i].put, s.lat)
				}
			}
		}
	}
	r := &recording{get: merge(get), put: merge(put)}
	r.all = merge(r.get, r.put)
	for _, b := range buckets {
		all, puts := merge(b.all), merge(b.put)
		if len(all) == 0 {
			continue
		}
		r.sliceRate = append(r.sliceRate, float64(len(all))/width.Seconds())
		p50, _ := all.us(0.50)
		p90, _ := all.us(0.90)
		r.sliceP50, r.sliceP90 = append(r.sliceP50, p50), append(r.sliceP90, p90)
		if len(puts) > 0 {
			pp50, _ := puts.us(0.50)
			r.slicePutP50 = append(r.slicePutP50, pp50)
		}
	}
	return r
}
