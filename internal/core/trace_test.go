package core

import (
	"strings"
	"testing"
)

func runTraced(t *testing.T, f *fixture, srcIdx int, qIdx int, r float64) *QueryResult {
	t.Helper()
	q := f.data[qIdx]
	center := f.emb.Map(q)
	var out *QueryResult
	err := f.sys.RangeQuery("test-l2", f.ids[srcIdx], q, center, r, QueryOpts{Trace: true}, func(qr *QueryResult) { out = qr })
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if out == nil {
		t.Fatal("query did not complete")
	}
	return out
}

func TestTraceRecordsExecution(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	out := runTraced(t, f, 0, 0, 15)
	tr := out.Trace
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("no trace recorded")
	}
	// Every query starts with routing at the source.
	if tr.Events[0].Action != TraceRoute || tr.Events[0].Node != f.ids[0] {
		t.Fatalf("first event = %+v", tr.Events[0])
	}
	// Answer events must exist and their count matches result messages
	// plus local answers.
	answers := tr.Count(TraceAnswer)
	if answers == 0 {
		t.Fatal("no answer events")
	}
	if answers < out.Stats.IndexNodes {
		t.Fatalf("answers %d < index nodes %d", answers, out.Stats.IndexNodes)
	}
	// Forward count matches... every forward corresponds to a subquery
	// inside some query message; messages batch subqueries, so forwards
	// >= messages.
	if fw := tr.Count(TraceForward); fw < out.Stats.QueryMsgs {
		t.Fatalf("forwards %d < query msgs %d", fw, out.Stats.QueryMsgs)
	}
	// No drops in a static network.
	if tr.Count(TraceDrop) != 0 {
		t.Fatal("drops recorded in a static network")
	}
	// Node set includes every answering node.
	if len(tr.Nodes()) < out.Stats.IndexNodes {
		t.Fatalf("trace nodes %d < answering nodes %d", len(tr.Nodes()), out.Stats.IndexNodes)
	}
	// Depth grows past the initial prefix.
	if tr.MaxDepth() == 0 {
		t.Fatal("no refinement depth recorded")
	}
	// Events render.
	var b strings.Builder
	for _, e := range tr.Events {
		b.WriteString(e.String() + "\n")
	}
	for _, want := range []string{"route", "answer"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("trace dump missing %q:\n%s", want, b.String())
		}
	}
}

func TestTraceEventTimesMonotoneEnough(t *testing.T) {
	f := buildFixture(t, 32, 2000, 3, false)
	out := runTraced(t, f, 3, 7, 25)
	tr := out.Trace
	// Times need not be globally sorted (parallel branches), but the
	// first event is the earliest and no event precedes issue time.
	for _, e := range tr.Events {
		if e.At < out.Stats.Issued {
			t.Fatalf("event before issue: %+v", e)
		}
		if e.At > out.Stats.LastResult {
			t.Fatalf("event after completion: %+v", e)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	f := buildFixture(t, 16, 500, 3, false)
	q := f.data[0]
	var out *QueryResult
	if err := f.sys.RangeQuery("test-l2", f.ids[0], q, f.emb.Map(q), 10, QueryOpts{}, func(qr *QueryResult) { out = qr }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if out.Trace != nil {
		t.Fatal("trace allocated without being requested")
	}
	// The nil trace is safe to use.
	if out.Trace.Count(TraceAnswer) != 0 || out.Trace.MaxDepth() != 0 || out.Trace.Nodes() != nil {
		t.Fatal("nil trace misbehaved")
	}
}
