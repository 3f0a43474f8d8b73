package chord

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"landmarkdht/internal/runtime"
	"landmarkdht/internal/sim"
)

func TestFaultPlanDropRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &runtime.FaultPolicy{Drop: 0.2}
	eng, net, nodes := newTestNet(t, 16, cfg)
	net.BuildAllTables()

	const total = 5000
	delivered, failed := 0, 0
	for i := 0; i < total; i++ {
		from := nodes[i%len(nodes)]
		to := nodes[(i+1)%len(nodes)]
		testSend(net, from, to.ID(), KindQuery, 100,
			func(*Node) { delivered++ }, func() { failed++ })
	}
	eng.Run()
	if delivered+failed != total {
		t.Fatalf("delivered %d + failed %d != %d sent", delivered, failed, total)
	}
	if dropped := net.Traffic().Dropped[KindQuery]; failed != int(dropped) {
		t.Fatalf("failed callbacks %d != Traffic.Dropped %d", failed, dropped)
	}
	rate := float64(failed) / total
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("observed loss rate %.3f, want ~0.20", rate)
	}
}

func TestFaultPlanPartitionWindow(t *testing.T) {
	cfg := DefaultConfig()
	// Hosts 0 and 1 are cut off from the rest during [1s, 2s).
	cfg.Faults = &runtime.FaultPolicy{Partitions: []runtime.PartitionWindow{
		{Hosts: []int{0, 1}, From: time.Second, To: 2 * time.Second},
	}}
	eng, net, nodes := newTestNet(t, 8, cfg)
	net.BuildAllTables()
	var beforeOK, insideCrossFail, insideSameOK, afterOK bool
	send := func(from, to *Node, ok *bool, fail *bool) {
		testSend(net, from, to.ID(), KindQuery, 10,
			func(*Node) {
				if ok != nil {
					*ok = true
				}
			},
			func() {
				if fail != nil {
					*fail = true
				}
			})
	}
	// nodes[i] lives on host i (newTestNet adds them in host order).
	send(nodes[0], nodes[5], &beforeOK, nil)
	eng.Schedule(1500*time.Millisecond, func() {
		send(nodes[0], nodes[5], nil, &insideCrossFail) // crosses the boundary
		send(nodes[0], nodes[1], &insideSameOK, nil)    // both inside the group
	})
	eng.Schedule(2500*time.Millisecond, func() {
		send(nodes[0], nodes[5], &afterOK, nil)
	})
	eng.Run()
	if !beforeOK {
		t.Fatal("message before the partition window was lost")
	}
	if !insideCrossFail {
		t.Fatal("boundary-crossing message inside the window was delivered")
	}
	if !insideSameOK {
		t.Fatal("intra-group message inside the window was lost")
	}
	if !afterOK {
		t.Fatal("message after the partition window was lost")
	}
}

func TestFaultPlanJitterDelaysDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &runtime.FaultPolicy{Jitter: 200 * time.Millisecond}
	eng, net, nodes := newTestNet(t, 4, cfg)
	net.BuildAllTables()

	base := net.Latency(nodes[0], nodes[1])
	sawExtra := false
	for i := 0; i < 50; i++ {
		sent := eng.Now()
		done := false
		testSend(net, nodes[0], nodes[1].ID(), KindQuery, 10, func(*Node) {
			if eng.Now()-sent > base {
				sawExtra = true
			}
			done = true
		}, nil)
		eng.Run()
		if !done {
			t.Fatal("jittered message never delivered")
		}
	}
	if !sawExtra {
		t.Fatal("no message saw extra latency under 200ms jitter")
	}
}

// faultLog sends msgs messages of each kind from nodes[0] to nodes[1]
// and returns what arrived or was lost, and when, in order.
func faultLog(net *Network, eng *sim.Engine, nodes []*Node, msgs int) []string {
	var log []string
	for i := 0; i < msgs; i++ {
		for kind := MsgKind(0); kind < numKinds; kind++ {
			msg := fmt.Sprintf("%v %d", kind, i)
			testSend(net, nodes[0], nodes[1].ID(), kind, 10+i,
				func(*Node) { log = append(log, fmt.Sprintf("recv %s at %v", msg, eng.Now())) },
				func() { log = append(log, fmt.Sprintf("lost %s at %v", msg, eng.Now())) })
		}
	}
	eng.Run()
	return log
}

// TestZeroPolicyDrawsNothing holds a zero fault policy to no policy at
// all: the same deliveries at the same times, the same traffic, and the
// runtime's random source left where it was.
func TestZeroPolicyDrawsNothing(t *testing.T) {
	type outcome struct {
		log     []string
		traffic Traffic
		next    int64
	}
	var got []outcome
	for _, pol := range []*runtime.FaultPolicy{nil, {}} {
		cfg := DefaultConfig()
		cfg.Faults = pol
		eng, net, nodes := newTestNet(t, 8, cfg)
		net.BuildAllTables()
		log := faultLog(net, eng, nodes, 50)
		got = append(got, outcome{log, net.Traffic(), net.Runtime().Rand().Int63()})
	}
	a, b := got[0], got[1]
	if len(a.log) != 50*int(numKinds) {
		t.Fatalf("%d messages settled, want %d", len(a.log), 50*int(numKinds))
	}
	if !slices.Equal(a.log, b.log) {
		t.Errorf("deliveries differ:\nnil:  %v\nzero: %v", a.log, b.log)
	}
	if a.traffic != b.traffic {
		t.Errorf("traffic differs: nil %+v, zero %+v", a.traffic, b.traffic)
	}
	if a.next != b.next {
		t.Errorf("random source moved: next draw %d with no policy, %d with a zero one", a.next, b.next)
	}
}

// TestPolicyCopiedAtConstruction edits a policy after its network is
// built — its probabilities, a partition's window and host group, and
// its list of partitions — and expects the network to go on with the
// policy it was given, which cuts nothing between hosts 0 and 1 and
// draws nothing: the same deliveries at the same times as no policy.
func TestPolicyCopiedAtConstruction(t *testing.T) {
	pol := &runtime.FaultPolicy{Partitions: []runtime.PartitionWindow{
		{Hosts: []int{0}, From: time.Hour, To: 2 * time.Hour},
		{Hosts: []int{7}, To: 2 * time.Hour},
	}}
	var logs [2][]string
	var traffic [2]Traffic
	for i, p := range []*runtime.FaultPolicy{nil, pol} {
		cfg := DefaultConfig()
		cfg.Faults = p
		eng, net, nodes := newTestNet(t, 8, cfg)
		net.BuildAllTables()
		if p != nil {
			p.Drop, p.Duplicate, p.Jitter = 1, 1, time.Second
			p.Partitions[0].From = 0
			p.Partitions[1].Hosts[0] = 0
			p.Partitions = append(p.Partitions, runtime.PartitionWindow{Hosts: []int{1}, To: time.Hour})
		}
		logs[i], traffic[i] = faultLog(net, eng, nodes, 20), net.Traffic()
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Errorf("deliveries differ:\nno policy: %v\nedited:    %v", logs[0], logs[1])
	}
	if traffic[0] != traffic[1] {
		t.Errorf("traffic differs: no policy %+v, edited %+v", traffic[0], traffic[1])
	}
}

// CrashNode must lose in-flight messages FROM the crashed node; the
// graceful RemoveNode must not (the departing process flushes them).
func TestCrashLosesInflightMessages(t *testing.T) {
	eng, net, nodes := newTestNet(t, 8, DefaultConfig())
	net.BuildAllTables()

	// Crash case: sender dies while its message is in flight.
	delivered, failed := false, false
	testSend(net, nodes[0], nodes[1].ID(), KindQuery, 10,
		func(*Node) { delivered = true }, func() { failed = true })
	if err := net.CrashNode(nodes[0].ID()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered {
		t.Fatal("message from a crashed sender was delivered")
	}
	if !failed {
		t.Fatal("loss callback did not fire for the crashed sender's message")
	}

	// Graceful case: the leaver's in-flight message still arrives.
	delivered, failed = false, false
	testSend(net, nodes[2], nodes[3].ID(), KindQuery, 10,
		func(*Node) { delivered = true }, func() { failed = true })
	if err := net.RemoveNode(nodes[2].ID()); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !delivered || failed {
		t.Fatalf("graceful leaver's message: delivered=%v failed=%v, want delivered", delivered, failed)
	}
}

func TestTimerStopCancels(t *testing.T) {
	eng := sim.NewEngine(1)
	fired := false
	tm := eng.AfterFunc(time.Second, func() { fired = true })
	eng.Schedule(500*time.Millisecond, func() { tm.Stop() })
	eng.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}

	fired = false
	tm = eng.AfterFunc(time.Second, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("armed timer did not fire")
	}
	if !tm.Stopped() {
		t.Fatal("Stopped() false after firing")
	}
}
