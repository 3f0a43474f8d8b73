package chord

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"landmarkdht/internal/runtime"
)

// sendLog is what recvLog and lostLog saw, in order.
var sendLog []string

// copies counts each message's copies in flight: one at send,
// one more per duplicate, one less per end.
var copies map[int]int

var logHandlers = Handlers{
	Recv: func(dst *Node, arg any) { recvLog(dst, arg); endCopy(arg) },
	Lost: func(arg any) { lostLog(arg); endCopy(arg) },
	Copy: func(arg any) { copies[*arg.(*int)]++ },
	Drop: endCopy,
}

func recvLog(dst *Node, arg any) {
	sendLog = append(sendLog, fmt.Sprintf("recv %d at %#x", *arg.(*int), dst.ID()))
}

func lostLog(arg any) { sendLog = append(sendLog, fmt.Sprintf("lost %d", *arg.(*int))) }

func endCopy(arg any) { copies[*arg.(*int)]-- }

// TestSendFormsAgree holds SendRecord to its outcomes — loss,
// duplication, a sender crashed in flight, a destination gone at send
// time and at delivery — counted exactly, and to every copy ending
// exactly once: SendRecord reports each duplicate and each dropped
// duplicate. A duplicate's copy never reports a loss: with every
// message doubled, a destination gone in flight is one loss per
// message. The lossy case's log, and its traffic, are pinned as they
// read when chord still had a closure form beside SendRecord, which this
// test then held to the same log (hence its name).
func TestSendFormsAgree(t *testing.T) {
	const msgs = 200
	cases := []struct {
		name   string
		faults *runtime.FaultPolicy
		// before runs once the messages are sent, before the engine.
		before func(t *testing.T, net *Network, nodes []*Node)
		// to picks message i's destination; the default is nodes[1].
		to         func(nodes []*Node, i int) ID
		recv, lost int
	}{
		{name: "delivered", recv: msgs},
		{name: "dropped", faults: &runtime.FaultPolicy{Drop: 1}, lost: msgs},
		{name: "duplicated", faults: &runtime.FaultPolicy{Duplicate: 1}, recv: 2 * msgs},
		{name: "lossy", faults: &runtime.FaultPolicy{Drop: 0.3, Duplicate: 0.5}, recv: 225, lost: 53},
		{name: "sender crashed", lost: msgs, before: func(t *testing.T, net *Network, nodes []*Node) {
			if err := net.CrashNode(nodes[0].ID()); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "gone at send", lost: msgs, to: func(nodes []*Node, i int) ID { return nodes[1].ID() + 1 }},
		{name: "gone at delivery", lost: msgs, before: func(t *testing.T, net *Network, nodes []*Node) {
			if err := net.RemoveNode(nodes[1].ID()); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "duplicated, gone at delivery", faults: &runtime.FaultPolicy{Duplicate: 1}, lost: msgs,
			before: func(t *testing.T, net *Network, nodes []*Node) {
				if err := net.RemoveNode(nodes[1].ID()); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = c.faults
			eng, net, nodes := newTestNet(t, 8, cfg)
			net.BuildAllTables()
			sendLog, copies = nil, make(map[int]int)
			for i := 0; i < msgs; i++ {
				to := nodes[1].ID()
				if c.to != nil {
					to = c.to(nodes, i)
				}
				copies[i]++
				net.SendRecord(nodes[0], to, KindQuery, 10+i, &logHandlers, &i)
			}
			if c.before != nil {
				c.before(t, net, nodes)
			}
			eng.Run()
			for i, n := range copies {
				if n != 0 {
					t.Errorf("message %d ends with %d copies unaccounted", i, n)
				}
			}
			copies = nil
			recv, lost := 0, 0
			for _, l := range sendLog {
				if l[0] == 'r' {
					recv++
				} else {
					lost++
				}
			}
			if recv != c.recv || lost != c.lost {
				t.Errorf("%d received, %d lost; want %d, %d", recv, lost, c.recv, c.lost)
			}
			if c.name != "lossy" {
				return
			}
			const wantLog = "e0505a17418db3097f300d3c768e67d0adb267383dd27023e39d29b65b965da4"
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(sendLog, "\n")))); got != wantLog {
				t.Errorf("the lossy log's SHA-256 is %s, want %s:\n%s", got, wantLog, strings.Join(sendLog, "\n"))
			}
			want := Traffic{Duplicated: 78}
			want.Msgs[KindQuery], want.Bytes[KindQuery], want.Dropped[KindQuery] = 278, 30266, 53
			if got := net.Traffic(); got != want {
				t.Errorf("traffic %+v, want %+v", got, want)
			}
		})
	}
}
