package main

import (
	"strings"
	"testing"

	lm "landmarkdht"
)

// TestRunFailures pins lmlive's exit decision: a clean run reports
// nothing, and a mismatch, an incomplete result, a transport shed and
// an admission rejection each fail the run on their own, naming the
// count.
func TestRunFailures(t *testing.T) {
	cases := []struct {
		name                 string
		mismatch, incomplete int
		rel                  lm.ReliabilityStats
		want                 string // substring of the single failure; "" = clean
	}{
		{name: "clean", rel: lm.ReliabilityStats{RetriesIssued: 4, QueueDepth: 9}},
		{name: "mismatch", mismatch: 2, want: "2 range queries disagreed"},
		{name: "incomplete", incomplete: 3, want: "3 range results came back incomplete"},
		{name: "shed", rel: lm.ReliabilityStats{TransportShed: 5}, want: "5 deliveries shed"},
		{name: "rejected", rel: lm.ReliabilityStats{AdmissionRejected: 7}, want: "7 queries rejected"},
	}
	for _, c := range cases {
		got := runFailures(c.mismatch, c.incomplete, c.rel)
		if c.want == "" {
			if len(got) != 0 {
				t.Errorf("%s: clean run reported failures %q", c.name, got)
			}
			continue
		}
		if len(got) != 1 || !strings.Contains(got[0], c.want) {
			t.Errorf("%s: failures %q, want one containing %q", c.name, got, c.want)
		}
	}
	all := runFailures(1, 1, lm.ReliabilityStats{TransportShed: 1, AdmissionRejected: 1})
	if len(all) != 4 {
		t.Errorf("four independent failures reported as %d: %q", len(all), all)
	}
}
