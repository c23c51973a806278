package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the reporting rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), as Python's statistics.median does. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples.
// A miss (failed or refused request) is +Inf and sorts last, so misses
// count against the percentile rather than vanishing from it. ok is false
// when fewer than minBeyond samples lie beyond the rank, or when the rank
// lands on a miss: such a percentile has no finite value to report.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	v = s[rank-1]
	return v, !math.IsInf(v, 1)
}

// truth is a simulated read's origin as encoded in its readsim name
// ("sim_<i>_pos<origin>_rev<bool>_err<n>"): origin is an offset into the
// chromosomes concatenated without spacers, the sequence the reads were
// sampled from.
type truth struct {
	origin int
	rev    bool
}

// parseTruth decodes a readsim read name.
func parseTruth(name string) (truth, error) {
	var t truth
	var havePos, haveRev bool
	for _, f := range strings.Split(name, "_") {
		switch {
		case strings.HasPrefix(f, "pos"):
			v, err := strconv.Atoi(f[3:])
			if err != nil {
				return t, fmt.Errorf("read %q: bad position: %w", name, err)
			}
			t.origin, havePos = v, true
		case strings.HasPrefix(f, "rev"):
			v, err := strconv.ParseBool(f[3:])
			if err != nil {
				return t, fmt.Errorf("read %q: bad strand: %w", name, err)
			}
			t.rev, haveRev = v, true
		}
	}
	if !havePos || !haveRev {
		return t, fmt.Errorf("read %q: no pos/rev truth fields", name)
	}
	return t, nil
}

// chromOf maps an offset in the spacer-free concatenation of chromosomes
// with the given lengths to (chromosome index, 0-based local offset). A
// read straddling a boundary belongs to the chromosome holding its first
// base.
func chromOf(lens []int, origin int) (chrom, local int, ok bool) {
	if origin < 0 {
		return 0, 0, false
	}
	for i, l := range lens {
		if origin < l {
			return i, origin, true
		}
		origin -= l
	}
	return 0, 0, false
}

// samHit is the part of one SAM record correct_share needs.
type samHit struct {
	name   string
	flag   int
	rname  string
	pos    int // 1-based, 0 when unmapped
	mapped bool
}

// placedCorrectly reports whether a SAM record puts its read on the true
// chromosome and strand within tol bases of the true origin.
func placedCorrectly(h samHit, names []string, lens []int, tol int) (bool, error) {
	t, err := parseTruth(h.name)
	if err != nil {
		return false, err
	}
	c, local, ok := chromOf(lens, t.origin)
	if !ok || !h.mapped {
		return false, nil
	}
	rev := h.flag&0x10 != 0
	d := h.pos - 1 - local
	return h.rname == names[c] && rev == t.rev && d >= -tol && d <= tol, nil
}

// unattributed is the wall time a replay does not explain: the tool's
// post-setup window minus the replayed layers on its path. It goes
// negative when the replay is slower than the tool (for example when the
// tool overlaps layers the replay runs back to back).
func unattributed(wall, setup float64, layers ...float64) float64 {
	rest := wall - setup
	for _, l := range layers {
		rest -= l
	}
	return rest
}

// overhead is the part of total a nested measurement does not cover.
func overhead(total, inner float64) float64 { return total - inner }

// openSample is one open-loop request: when it was due by the schedule,
// when the generator actually sent it, and when its answer completed.
type openSample struct {
	due, sent, done time.Duration // offsets from the phase start
	ok              bool
}

// latency is measured from the scheduled send time, so a stall that
// delays later sends counts against them; a miss is +Inf.
func (s openSample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return ms(s.done - s.due)
}

// lateness is how far behind its schedule the generator sent a request.
func (s openSample) lateness() float64 { return ms(s.sent - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
