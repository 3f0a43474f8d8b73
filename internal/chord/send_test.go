package chord

import (
	"fmt"
	"slices"
	"testing"

	"landmarkdht/internal/runtime"
)

// sendForms are the two ways to send one message: SendOrFail's closures
// and SendRecord's record with package-level handlers. Each test message
// is identified by its arg, an *int.
var sendForms = []struct {
	name string
	send func(net *Network, from *Node, to ID, kind MsgKind, bytes int, arg *int)
}{
	{"closures", func(net *Network, from *Node, to ID, kind MsgKind, bytes int, arg *int) {
		net.SendOrFail(from, to, kind, bytes,
			func(dst *Node) { recvLog(dst, arg) }, func() { lostLog(arg) })
	}},
	{"record", func(net *Network, from *Node, to ID, kind MsgKind, bytes int, arg *int) {
		copies[*arg]++
		net.SendRecord(from, to, kind, bytes, &logHandlers, arg)
	}},
}

// sendLog is what recvLog and lostLog saw, in order.
var sendLog []string

// copies counts each record message's copies in flight: one at send,
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

// TestSendFormsAgree runs SendOrFail and SendRecord through the same
// scenarios — loss, duplication, a sender crashed in flight, a
// destination gone at send time and at delivery — and holds them to the
// same deliveries and losses, in the same order, and the same traffic
// and fault counters. A duplicate's copy never reports a loss: with
// every message doubled, a destination gone in flight is one loss per
// message. SendRecord also reports each duplicate and each dropped
// duplicate, so every copy of a record ends exactly once.
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
		{name: "lossy", faults: &runtime.FaultPolicy{Drop: 0.3, Duplicate: 0.5}, recv: -1, lost: -1},
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
			type outcome struct {
				log     []string
				traffic Traffic
			}
			var got []outcome
			for _, form := range sendForms {
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
					form.send(net, nodes[0], to, KindQuery, 10+i, &i)
				}
				if c.before != nil {
					c.before(t, net, nodes)
				}
				eng.Run()
				for i, n := range copies {
					if n != 0 {
						t.Errorf("%s: message %d ends with %d copies unaccounted", form.name, i, n)
					}
				}
				copies = nil
				o := outcome{log: sendLog, traffic: net.Traffic()}
				recv, lost := 0, 0
				for _, l := range o.log {
					if l[0] == 'r' {
						recv++
					} else {
						lost++
					}
				}
				if c.recv >= 0 && recv != c.recv || c.lost >= 0 && lost != c.lost {
					t.Errorf("%s: %d received, %d lost; want %d, %d", form.name, recv, lost, c.recv, c.lost)
				}
				if c.recv < 0 && (recv == 0 || lost == 0) {
					t.Errorf("%s: %d received, %d lost; want some of each", form.name, recv, lost)
				}
				got = append(got, o)
			}
			a, b := got[0], got[1]
			if !slices.Equal(a.log, b.log) {
				t.Errorf("deliveries and losses differ:\n%s: %v\n%s: %v", sendForms[0].name, a.log, sendForms[1].name, b.log)
			}
			if a.traffic != b.traffic {
				t.Errorf("accounting differs: %+v vs %+v", a, b)
			}
		})
	}
}
