package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"nab/internal/metrics"
)

// registry is one scrape of the process-wide nab_* registry, read through
// its own text exposition exactly as a /metrics client would: sample name
// (labels included) -> value.
type registry map[string]float64

func scrapeRegistry() (registry, error) {
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := registry{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// since returns the per-sample difference to an earlier scrape: the
// registry's activity over the window between the two, with no need to
// reset instruments a live session is still updating.
func (r registry) since(start registry) registry {
	out := make(registry, len(r))
	for k, v := range r {
		out[k] = v - start[k]
	}
	return out
}

// sumPrefix adds up every sample of a labeled family, e.g. all links of
// nab_transport_link_bits_total.
func (r registry) sumPrefix(family string) float64 {
	s := 0.0
	for k, v := range r {
		if strings.HasPrefix(k, family+"{") {
			s += v
		}
	}
	return s
}

// label extracts one label's value from a sample name.
func label(sample, key string) string {
	_, rest, ok := strings.Cut(sample, key+`="`)
	if !ok {
		return ""
	}
	val, _, _ := strings.Cut(rest, `"`)
	return val
}

// histQuantile estimates the q-quantile of a histogram's observations in
// this (delta) scrape, interpolating linearly inside the bucket it falls
// in, as Prometheus's histogram_quantile does. 0 without observations.
func (r registry) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range r {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		le := label(k, "le")
		if le == "+Inf" {
			bs = append(bs, bucket{math.Inf(1), v})
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{f, v})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) || b.cum == below {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.cum-below)
		}
		lo, below = b.le, b.cum
	}
	return lo
}
