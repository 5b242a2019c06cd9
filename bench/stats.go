package main

import (
	"math"
	"sort"

	"inferray/internal/rdf"
)

// metric is one named measurement. Timings carry the sample count and
// quartiles of the samples their median was taken over.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// median records the median of samples (already in unit) with its
// sample count and quartiles.
func (m metrics) median(name string, samples []float64, unit string) {
	m.quantile(name, samples, 0.5, unit)
}

// quantile records the p-quantile of samples, same annotations.
func (m metrics) quantile(name string, samples []float64, p float64, unit string) {
	s := sorted(samples)
	m[name] = metric{
		Value: percentile(s, p), Unit: unit, N: len(s),
		Q1: percentile(s, 0.25), Q3: percentile(s, 0.75),
	}
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between the two closest ranks, so the median of
// an even count is the mean of the middle pair. Empty input gives 0.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func medianOf(samples []float64) float64 { return percentile(sorted(samples), 0.5) }

// spread is the interquartile distance as a share of the median — the
// run-to-run spread the A/A procedure compares with a metric's bound.
// With fewer than four values it falls back to (max−min)/median, and a
// single value has no spread.
func spread(values []float64) float64 {
	s := sorted(values)
	med := percentile(s, 0.5)
	if len(s) < 2 || med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / math.Abs(med)
}

// digest is an order-independent fingerprint of a triple set: the count
// plus the wrapping sum and xor of a 64-bit FNV-1a hash per triple. Two
// closures compare equal whatever dictionary numbering (and therefore
// enumeration order) produced them.
type digest struct {
	N   int    `json:"n"`
	Sum uint64 `json:"sum"`
	Xor uint64 `json:"xor"`
}

func (d *digest) add(t rdf.Triple) {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, term := range [3]string{t.S, t.P, t.O} {
		for i := 0; i < len(term); i++ {
			h = (h ^ uint64(term[i])) * prime
		}
		h = (h ^ ' ') * prime
	}
	d.N++
	d.Sum += h
	d.Xor ^= h
}

// tripleSource is the enumeration both inferray.Reasoner and
// reasoner.Engine offer.
type tripleSource interface {
	Triples(fn func(t rdf.Triple) bool)
}

func digestOf(src tripleSource) digest {
	var d digest
	src.Triples(func(t rdf.Triple) bool {
		d.add(t)
		return true
	})
	return d
}
