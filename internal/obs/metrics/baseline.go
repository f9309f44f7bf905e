package metrics

import (
	"sort"

	"repro/internal/obs"
)

// Baseline is a reusable snapshot of a registry's stored series:
// counters, gauges, histogram sums and counts. Function-backed families
// (uptime, goroutines, GC cycles) are left out: they move with the clock
// and the scheduler, not with a job. capmand takes one as each job starts
// and reads it back only when the job fails, as the record's metric
// deltas. Take fills the same buffer every time, so once it has grown to
// the registry's series set a baseline allocates nothing; the deltas and
// their label maps are built by Delta alone.
type Baseline struct {
	reg  *Registry
	vals []baseVal
}

// baseVal is one series' value at the baseline.
type baseVal struct {
	ref    any // series identity: the instrument
	name   string
	suffix string // "", "_sum" or "_count"
	kind   string
	labels []string // label names (registry storage, read-only)
	values []string // label values (registry storage, read-only)
	v      float64
}

// Take records r's current values, replacing the previous baseline. Safe
// on a nil registry (records nothing).
func (b *Baseline) Take(r *Registry) {
	b.reg, b.vals = r, b.vals[:0]
	r.VisitStored(b)
}

// VisitStored records one stored series; it makes Baseline a
// StoredVisitor for Take.
func (b *Baseline) VisitStored(s StoredSample) {
	v := baseVal{ref: s.Ref, name: s.Name, kind: s.Kind, labels: s.Labels, values: s.Values, v: s.Value}
	if s.Hist == nil {
		b.vals = append(b.vals, v)
		return
	}
	v.kind = KindCounter
	sum, count := v, v
	sum.suffix, sum.v = "_sum", s.Hist.Sum()
	count.suffix, count.v = "_count", float64(s.Hist.Count())
	b.vals = append(b.vals, sum, count)
}

// Delta returns every series whose value moved since Take, sorted by
// name: it takes the registry's values again and matches them to the
// baseline by series identity. A series registered or first labeled
// since Take counts as moved from 0.
func (b *Baseline) Delta() []obs.MetricDelta {
	if b.reg == nil {
		return nil
	}
	type id struct {
		ref    any
		suffix string
	}
	before := make(map[id]float64, len(b.vals))
	for _, v := range b.vals {
		before[id{v.ref, v.suffix}] = v.v
	}
	var now Baseline
	now.Take(b.reg)
	var out []obs.MetricDelta
	for _, v := range now.vals {
		old := before[id{v.ref, v.suffix}]
		if v.v == old {
			continue
		}
		d := obs.MetricDelta{Name: v.name + v.suffix, Kind: v.kind, Before: old, After: v.v}
		if len(v.labels) > 0 {
			d.Labels = make(map[string]string, len(v.labels))
			for i, l := range v.labels {
				d.Labels[l] = v.values[i]
			}
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
