package core

import (
	"fmt"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
)

// TraceAction classifies one step of a query's distributed execution.
type TraceAction string

const (
	// TraceRoute is a QueryRouting step (Algorithm 3) at a node.
	TraceRoute TraceAction = "route"
	// TraceForward is a query message leaving for another node.
	TraceForward TraceAction = "forward"
	// TraceRefine is a SurrogateRefine step (Algorithm 5).
	TraceRefine TraceAction = "refine"
	// TraceAnswer is a local answer with candidate counts.
	TraceAnswer TraceAction = "answer"
	// TraceDrop is a subquery lost to churn or the hop guard.
	TraceDrop TraceAction = "drop"
	// TraceRetry is a retransmission by the reliable-delivery layer
	// after an acknowledgement timeout.
	TraceRetry TraceAction = "retry"
	// TraceHedge is a hedged duplicate of a still-outstanding subquery
	// shipped to the region owner's replica after the hedge delay.
	TraceHedge TraceAction = "hedge"
	// TraceDeadline is a query expiring at its deadline with work
	// outstanding; the unanswered regions become QueryResult.Uncovered.
	TraceDeadline TraceAction = "deadline"
)

// TraceEvent is one step in a query's execution tree. The sequence of
// events reconstructs how the query was split and refined across the
// embedded DHT trees — the paper's Figure 1 in executable form.
type TraceEvent struct {
	At     time.Duration
	Node   chord.ID
	Action TraceAction
	PreKey lph.Key
	PreLen int
	Hops   int
	// Dest is the destination node for forward events.
	Dest chord.ID
	// Candidates / Returned are set on answer events.
	Candidates int
	Returned   int
}

// String renders one event compactly.
func (e TraceEvent) String() string {
	switch e.Action {
	case TraceForward, TraceHedge:
		return fmt.Sprintf("%9v hop%-2d %-7s node %016x -> %016x prefix %016x/%d",
			e.At, e.Hops, e.Action, e.Node, e.Dest, e.PreKey, e.PreLen)
	case TraceAnswer:
		return fmt.Sprintf("%9v hop%-2d %-7s node %016x prefix %016x/%d candidates=%d returned=%d",
			e.At, e.Hops, e.Action, e.Node, e.PreKey, e.PreLen, e.Candidates, e.Returned)
	default:
		return fmt.Sprintf("%9v hop%-2d %-7s node %016x prefix %016x/%d",
			e.At, e.Hops, e.Action, e.Node, e.PreKey, e.PreLen)
	}
}

// Trace is a query's full execution record.
type Trace struct {
	Events []TraceEvent
}

// add appends an event (nil-safe: tracing off).
func (t *Trace) add(e TraceEvent) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, e)
}

// Nodes returns the distinct nodes the query touched, in first-touch
// order.
func (t *Trace) Nodes() []chord.ID {
	if t == nil {
		return nil
	}
	seen := map[chord.ID]bool{}
	var out []chord.ID
	for _, e := range t.Events {
		if !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e.Node)
		}
	}
	return out
}

// Count returns the number of events with the given action.
func (t *Trace) Count(action TraceAction) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, e := range t.Events {
		if e.Action == action {
			n++
		}
	}
	return n
}

// MaxDepth returns the deepest prefix the query was refined to.
func (t *Trace) MaxDepth() int {
	if t == nil {
		return 0
	}
	d := 0
	for _, e := range t.Events {
		if e.PreLen > d {
			d = e.PreLen
		}
	}
	return d
}
