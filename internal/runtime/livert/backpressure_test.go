package livert_test

import (
	"sync/atomic"
	"testing"
	"time"

	"landmarkdht/internal/runtime/livert"
)

// TestInboxShedsUnderBacklog fills the bounded delivery queue while the
// executor is deliberately stalled and checks the overflow is shed and
// counted, never silently lost or unboundedly queued: every send is
// accounted as either a delivery or a shed.
func TestInboxShedsUnderBacklog(t *testing.T) {
	const maxInbox = 4
	rt := livert.New(livert.Config{Seed: 1, MaxInbox: maxInbox})
	defer rt.Close()

	// Stall the executor on its first delivery so everything behind it
	// backs up in the inbox.
	stalled := make(chan struct{})
	release := make(chan struct{})
	var delivered atomic.Int64
	rt.Send(1, 0, func(any) {
		close(stalled)
		<-release
	}, nil)
	<-stalled

	const flood = 200
	for i := 0; i < flood; i++ {
		rt.Send(1, 0, func(any) { delivered.Add(1) }, nil)
	}
	// Wait for the flood to be fully adjudicated (queued or shed) while
	// the executor is still stalled: from here on no new sheds happen.
	deadline := time.Now().Add(10 * time.Second)
	for {
		depth, shed := rt.QueueStats()
		if depth+int(shed) >= flood {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood never settled: depth=%d shed=%d", depth, shed)
		}
		time.Sleep(time.Millisecond)
	}
	_, shed := rt.QueueStats()
	if shed == 0 {
		t.Fatalf("no deliveries shed with a %d-deep inbox under a %d-message flood", maxInbox, flood)
	}
	close(release)

	// Drain: everything accepted must be delivered.
	for {
		if delivered.Load()+shed == flood {
			break
		}
		if time.Now().After(deadline) {
			d, s := delivered.Load(), shed
			t.Fatalf("accounting hole: delivered=%d shed=%d, sent=%d", d, s, flood)
		}
		time.Sleep(time.Millisecond)
	}
	if _, finalShed := rt.QueueStats(); finalShed != shed {
		t.Fatalf("sheds grew after release: %d -> %d", shed, finalShed)
	}
}

// TestInboxUnbounded checks MaxInbox < 0 disables shedding entirely.
func TestInboxUnbounded(t *testing.T) {
	rt := livert.New(livert.Config{Seed: 1, MaxInbox: -1})
	defer rt.Close()
	stalled := make(chan struct{})
	release := make(chan struct{})
	var delivered atomic.Int64
	rt.Send(1, 0, func(any) {
		close(stalled)
		<-release
	}, nil)
	<-stalled
	const flood = 500
	for i := 0; i < flood; i++ {
		rt.Send(1, 0, func(any) { delivered.Add(1) }, nil)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() != flood {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d with unbounded inbox", delivered.Load(), flood)
		}
		time.Sleep(time.Millisecond)
	}
	if _, shed := rt.QueueStats(); shed != 0 {
		t.Fatalf("unbounded inbox shed %d deliveries", shed)
	}
}
