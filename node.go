package landmarkdht

import (
	"time"

	"landmarkdht/internal/runtime/netrt"
)

// NodeOptions configures one deployable ring node: a real OS process
// serving the landmark index over TCP (see cmd/lmnode). Unlike
// Options — which boots a whole simulated in-process overlay —
// a Node is one member of a multi-process ring: every process rebuilds
// the same deterministic corpus from the shared Seed/Metric parameters
// and serves exactly the entries it owns under the current membership.
type NodeOptions struct {
	// Listen is the TCP listen address ("127.0.0.1:0" picks a port).
	// The node's ring identity derives from the bound address, so a
	// process restarted on the same explicit address resumes its ring
	// position and ownership.
	Listen string
	// Join lists peer addresses to bootstrap from. Empty starts a new
	// ring.
	Join []string
	// Seed pins the deterministic corpus; it must match across the
	// ring (the handshake refuses peers built from a different one).
	Seed int64
	// Metric selects the corpus: "euclid" (default) or "edit".
	Metric string
	// Objects, Dim, Landmarks size the corpus (defaults 2048, 4, 6).
	Objects   int
	Dim       int
	Landmarks int
	// DataDir, when set, makes the node's state durable: every online
	// publish and delete the node accepts as owner is journaled to this
	// directory before it is acknowledged, and a process restarted on
	// the same Listen address replays them on top of the corpus it
	// builds. Each node needs its own directory.
	DataDir string
	// Deadline bounds each query; on expiry it finishes incomplete
	// with the results gathered so far (default 5s).
	Deadline time.Duration
	// GossipPeriod is the membership anti-entropy interval (default
	// 500ms).
	GossipPeriod time.Duration
	// Replicas is how many ring successors hold a copy of this node's
	// mutations (default 0: no replication). With Replicas ≥ 1 the
	// ring keeps answering Complete and exact for a dead member's region
	// once the failure detector marks it down: its shards are answered
	// from the synced copies. Every member should use the same value.
	Replicas int
	// Faults injects frame drops and connection kills (FrameDrop,
	// KillConn, Seed) into the node's peer links, the one place a
	// transport exists; the policy's overlay-level fields are not read
	// here.
	Faults *FaultOptions
	// Logf, when set, receives one line per membership and link event.
	Logf func(format string, args ...any)
}

// Node is one running ring member. Start it with StartNode, query it
// from any goroutine, and Close it when done. Remote processes reach
// it over TCP via DialNode or cmd/lmnode's peers.
type Node struct {
	inner *netrt.Node
}

// NodeResult is one finished node query. Complete means the answer is
// the exact range-query result over the corpus; otherwise Entries is
// an honest subset and Dropped counts the region shards lost for good.
type NodeResult = netrt.QueryOutcome

// NodeEntry is one matching object in a NodeResult.
type NodeEntry = netrt.ResultEntry

// NodeStats aggregates a node's link-layer counters.
type NodeStats = netrt.LinkStats

// StartNode builds the corpus, binds the listener, joins the ring, and
// returns the running node.
func StartNode(opts NodeOptions) (*Node, error) {
	inner, err := netrt.Start(netrt.Config{
		Listen: opts.Listen,
		Join:   opts.Join,
		Data: netrt.DataConfig{
			Metric:    opts.Metric,
			Seed:      opts.Seed,
			Objects:   opts.Objects,
			Dim:       opts.Dim,
			Landmarks: opts.Landmarks,
		},
		DataDir:      opts.DataDir,
		Deadline:     opts.Deadline,
		GossipPeriod: opts.GossipPeriod,
		Replicas:     opts.Replicas,
		Faults:       opts.Faults,
		Logf:         opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &Node{inner: inner}, nil
}

// ID returns the node's ring identity.
func (n *Node) ID() uint64 { return n.inner.ID() }

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.inner.Addr() }

// Recovered reports whether an earlier boot had initialised DataDir, so
// that this one replayed the mutations journaled there (false on the
// boot that first uses the directory).
func (n *Node) Recovered() bool { return n.inner.Recovered() }

// Stats snapshots the node's link layer.
func (n *Node) Stats() NodeStats { return n.inner.Stats() }

// Close shuts the node down: listener, client connections, peer links,
// and the protocol executor.
func (n *Node) Close() { n.inner.Close() }

// QueryVector runs one range query with a vector query object against
// the ring ("euclid" corpus). Safe from any goroutine.
func (n *Node) QueryVector(q Vector, r float64, timeout time.Duration) (NodeResult, error) {
	return n.inner.Query(netrt.EncodeVectorQuery(q), r, timeout)
}

// QueryString runs one range query with a string query object against
// the ring ("edit" corpus). Safe from any goroutine.
func (n *Node) QueryString(q string, r float64, timeout time.Duration) (NodeResult, error) {
	return n.inner.Query(netrt.EncodeStringQuery(q), r, timeout)
}

// PublishVector inserts one vector object under id ("euclid" corpus).
// The mutation routes to the owner of the object's ring key, is
// journaled when the owner is durable, and fans out to the owner's
// replicas; id must not collide with the deterministic boot corpus.
func (n *Node) PublishVector(id int32, v Vector, timeout time.Duration) error {
	return n.inner.Publish(id, netrt.EncodeVectorQuery(v), timeout)
}

// PublishString inserts one string object under id ("edit" corpus).
func (n *Node) PublishString(id int32, s string, timeout time.Duration) error {
	return n.inner.Publish(id, netrt.EncodeStringQuery(s), timeout)
}

// DeleteID tombstones one boot-corpus entry by id.
func (n *Node) DeleteID(id int32, timeout time.Duration) error {
	return n.inner.Delete(id, nil, timeout)
}

// DeleteVector removes a published vector entry (the object bytes
// re-derive the ring key the delete routes by).
func (n *Node) DeleteVector(id int32, v Vector, timeout time.Duration) error {
	return n.inner.Delete(id, netrt.EncodeVectorQuery(v), timeout)
}

// DeleteString removes a published string entry.
func (n *Node) DeleteString(id int32, s string, timeout time.Duration) error {
	return n.inner.Delete(id, netrt.EncodeStringQuery(s), timeout)
}

// NodeClient is a TCP connection to a ring node's client port; it runs
// queries on a node owned by another process. Safe for concurrent use.
type NodeClient = netrt.Client

// NodeInfo is a node's self-description, from NodeClient.Info.
type NodeInfo = netrt.Info

// DialNode connects to a running node (typically a cmd/lmnode
// process) and completes the client handshake.
func DialNode(addr string, timeout time.Duration) (*NodeClient, error) {
	return netrt.Dial(addr, timeout)
}
