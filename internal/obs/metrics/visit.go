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

// VisitStored walks every stored-instrument series — counters, gauges,
// and histograms, in family-name then label order — and hands each to v.
// Function-backed families (GaugeFunc, CounterFunc, Info) are skipped:
// they are scrape-time constructs whose collection allocates, and the
// point of VisitStored is an allocation-free walk.
// Once the series set is stable the walk performs zero allocations,
// which is what lets the tsdb sample path run under an allocs/op == 0
// benchmark guard. Safe on a nil registry (visits nothing).
func (r *Registry) VisitStored(v StoredVisitor) {
	if r == nil {
		return
	}
	for _, f := range r.families() {
		if f.collect != nil {
			continue
		}
		for _, s := range f.snapshotSeries() {
			smp := StoredSample{
				Name:   f.name,
				Kind:   f.kind,
				Labels: f.labels,
				Values: s.labelValues,
				Ref:    s.inst,
			}
			switch inst := s.inst.(type) {
			case *Counter:
				smp.Value = float64(inst.Value())
			case *CounterFloat:
				smp.Value = inst.Value()
			case *Gauge:
				smp.Value = float64(inst.Value())
			case *GaugeFloat:
				smp.Value = inst.Value()
			case *Histogram:
				smp.Hist = inst.h
			}
			v.VisitStored(smp)
		}
	}
}
