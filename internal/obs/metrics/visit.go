package metrics

import "repro/internal/obs"

// StoredSample is one stored-instrument series surfaced by VisitStored:
// either a scalar (counters and gauges, via Value) or a histogram (via
// Hist, read with obs.Histogram.ReadInto). Labels and Values are the
// registry's own storage and must be treated as read-only; Ref is a
// stable identity for the series — the instrument pointer itself — valid
// for the life of the registry, so samplers can key their per-series
// state on it without building (and allocating) a label key.
type StoredSample struct {
	Name   string
	Kind   string         // KindCounter | KindGauge | KindHistogram
	Labels []string       // label names (shared, read-only)
	Values []string       // label values (shared, read-only)
	Ref    any            // stable series identity (the instrument pointer)
	Value  float64        // counters and gauges; 0 for histograms
	Hist   *obs.Histogram // histograms; nil for scalars
}

// StoredVisitor observes stored-instrument series during VisitStored.
// It is an interface rather than a func parameter so a long-lived
// visitor (the tsdb sampler) costs no closure allocation per visit.
type StoredVisitor interface {
	VisitStored(s StoredSample)
}

// read returns a stored series' value: a scalar's as a float, or the
// histogram itself (v is then 0). It is the registry's one switch over
// instrument types; every reader of stored series goes through it.
func (s *series) read() (v float64, h *Histogram) {
	switch inst := s.inst.(type) {
	case *Counter:
		return float64(inst.Value()), nil
	case *CounterFloat:
		return inst.Value(), nil
	case *Gauge:
		return float64(inst.Value()), nil
	case *GaugeFloat:
		return inst.Value(), nil
	}
	return 0, s.inst.(*Histogram)
}

// VisitStored walks every stored-instrument series — counters, gauges,
// and histograms, in family-name then label order — and hands each to v.
// Function-backed families (GaugeFunc, CounterFunc) store no series, so
// the walk passes them by: their samplers may be costly (the runtime
// gauges read runtime.MemStats), and the point of VisitStored is a cheap,
// allocation-free walk.
// Once the series set is stable the walk performs zero allocations,
// which is what lets the tsdb sample path run under an allocs/op == 0
// benchmark guard. Safe on a nil registry (visits nothing).
func (r *Registry) VisitStored(v StoredVisitor) {
	if r == nil {
		return
	}
	for _, f := range r.families() {
		for _, s := range f.snapshotSeries() {
			val, h := s.read()
			smp := StoredSample{
				Name:   f.name,
				Kind:   f.kind,
				Labels: f.labels,
				Values: s.labelValues,
				Ref:    s.inst,
				Value:  val,
			}
			if h != nil {
				smp.Hist = h.h
			}
			v.VisitStored(smp)
		}
	}
}
