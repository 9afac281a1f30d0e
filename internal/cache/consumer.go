package cache

import (
	"wsstudy/internal/trace"
)

// Trace-stream adapters: the profiler consumes the kernel reference
// stream directly, at per-Ref or block granularity, so tools need no
// trace.Func closure (and its per-reference indirect call) between the
// stream and the simulator.

// Ref feeds one reference to the profiler. The issuing PE is ignored:
// callers that want a single processor's working set wrap the profiler in
// a trace.PEFilter, as the paper's per-processor measurements do. Like
// Refs, it publishes the staged run-scope counters before returning.
func (p *StackProfiler) Ref(r trace.Ref) {
	p.Access(r.Addr, r.Size, r.Kind == trace.Read)
	p.FlushMetrics()
}

// Refs feeds a block of references to the profiler in order, publishing
// the staged run-scope counters once at the end of the block.
func (p *StackProfiler) Refs(block []trace.Ref) {
	for i := range block {
		p.Access(block[i].Addr, block[i].Size, block[i].Kind == trace.Read)
	}
	p.FlushMetrics()
}

var _ trace.BlockConsumer = (*StackProfiler)(nil)
