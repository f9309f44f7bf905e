package metrics

import "repro/internal/obs"

// Baseline is a reusable snapshot of a registry's values: every stored
// series (counters, gauges, histogram sums and counts) and every unlabeled
// function-backed gauge or counter. capmand takes one as each job starts
// and reads it back only when the job fails, as the record's metric
// deltas. Take fills the same buffer every time, so once it has grown to
// the registry's series set a baseline allocates nothing; the samples and
// label maps are built by Delta alone.
//
// Info families are left out: sampling one builds its label set afresh
// on every call.
type Baseline struct {
	reg  *Registry
	vals []baseVal
}

// baseVal is one series' value at the baseline.
type baseVal struct {
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
	if r == nil {
		return
	}
	for _, f := range r.families() {
		if f.value != nil {
			b.vals = append(b.vals, baseVal{name: f.name, kind: f.kind, v: f.value()})
		}
	}
}

// VisitStored records one stored series; it makes Baseline a
// StoredVisitor for Take.
func (b *Baseline) VisitStored(s StoredSample) {
	v := baseVal{name: s.Name, kind: s.Kind, labels: s.Labels, values: s.Values, v: s.Value}
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

// Delta returns what moved in the registry since Take, as DeltaSamples
// reports it, over the series a baseline covers.
func (b *Baseline) Delta() []obs.MetricDelta {
	if b.reg == nil {
		return nil
	}
	before := make([]Sample, 0, len(b.vals))
	for _, v := range b.vals {
		smp := Sample{Name: v.name + v.suffix, Kind: v.kind, Value: v.v}
		if len(v.labels) > 0 {
			smp.Labels = make(map[string]string, len(v.labels))
			for i, l := range v.labels {
				smp.Labels[l] = v.values[i]
			}
		}
		before = append(before, smp)
	}
	uncovered := map[string]bool{}
	for _, f := range b.reg.families() {
		if f.collect != nil && f.value == nil {
			uncovered[f.name] = true
		}
	}
	after := b.reg.Gather()
	kept := after[:0]
	for _, s := range after {
		if !uncovered[s.Name] {
			kept = append(kept, s)
		}
	}
	return DeltaSamples(before, kept)
}
