package netrt

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"landmarkdht/internal/wire"
)

// Client is a connection to one ring node's client port. Calls are
// correlated to replies by frame id, so a client is safe for
// concurrent use from multiple goroutines.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan []byte
	closed  bool
}

// Info is a node's self-description and the body of the client
// protocol's info reply (appendInfo, proto.go): its identity, view of the
// ring, and how much of the corpus it currently owns.
type Info struct {
	ID      uint64
	Addr    string
	Members []Member
	Store   int
	// Recovered reports that an earlier boot had initialised the node's
	// data directory, so this one replayed the mutations journaled
	// there; Replayed counts the durable records read. Both zero on
	// nodes without a data dir and on the boot that first uses one.
	Recovered bool
	Replayed  int
	// Replication and failure-detection state: the configured factor,
	// the members this node's detector currently marks down, the owners
	// whose deltas it holds synced copies of, the published entries in
	// its own delta, and the repair counters (bulk streams installed,
	// chunks received — zero on a healthy ring, whose copies fan-out
	// keeps current).
	Replicas     int
	Down         []uint64
	SyncedOwners int
	Extras       int
	Repairs      int64
	RepairChunks int64
	// The work of answering, counted where it is done and cumulative
	// since boot: Tested is the entries whose points were compared with
	// a query cube — boot entries and published extras alike, the rows
	// under the leaf boxes that met it, and every row of a delta's
	// unsorted tail — and
	// Refined the ones that were inside and alive, i.e. the exact
	// distances computed — for this node's own regions and for a down
	// owner's, which are the same walk filtered by its copy.
	Tested  uint64
	Refined uint64
}

// Dial connects to a node and completes the client handshake.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		closeConn(conn)
		return nil, err
	}
	if err := writePayload(conn, 1, appendClientWelcome(nil, kindClientHello, &clientWelcomeMsg{Version: protoVersion})); err != nil {
		closeConn(conn)
		return nil, err
	}
	_, payload, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		closeConn(conn)
		return nil, fmt.Errorf("netrt: client handshake read: %w", err)
	}
	kind, body, err := splitMsg(payload)
	if err != nil || (kind != kindClientWelcome && kind != kindReject) {
		closeConn(conn)
		return nil, fmt.Errorf("netrt: unexpected client handshake reply")
	}
	// A node that refused this client's version says so with its own, and
	// one that welcomed it names the same one; past another version's
	// prefix nothing is this side's to read, and every later frame would
	// be misread, so the mismatch ends the dial.
	if v := bodyVersion(body); kind == kindReject || v != protoVersion {
		closeConn(conn)
		return nil, fmt.Errorf("netrt: node %s speaks protocol version %d, this client %d", addr, v, protoVersion)
	}
	if _, err := decodeClientWelcome(body); err != nil {
		closeConn(conn)
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		closeConn(conn)
		return nil, err
	}
	c := &Client{conn: conn, nextID: 1, pending: make(map[uint64]chan []byte)}
	go c.readLoop()
	return c, nil
}

// readLoop routes reply frames to their waiting callers by frame id.
// It reads through a buffer, like a link's reader (link.readLoop); Dial
// read the welcome frame, and nothing past it, straight off the
// connection.
func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	var buf []byte
	for {
		id, payload, next, err := wire.ReadFrame(r, buf)
		if err != nil {
			c.mu.Lock()
			c.closed = true
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		buf = next
		cp := append([]byte(nil), payload...)
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- cp
		}
	}
}

// roundTrip sends one request payload and waits for its reply.
func (c *Client) roundTrip(payload []byte, timeout time.Duration) (byte, []byte, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("netrt: client connection closed")
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	cancel := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	frame, err := wire.AppendFrame(nil, id, payload)
	if err != nil {
		cancel()
		return 0, nil, err
	}
	c.wmu.Lock()
	//lint:allow lockheld wmu exists to serialize frame writes; waiting behind a peer's write is its contract
	_, err = c.conn.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		cancel()
		return 0, nil, err
	}
	select {
	case p, ok := <-ch:
		if !ok {
			return 0, nil, fmt.Errorf("netrt: connection lost awaiting reply")
		}
		return splitMsg(p)
	case <-time.After(timeout):
		cancel()
		return 0, nil, fmt.Errorf("netrt: request timed out after %v", timeout)
	}
}

// Query runs one range query on the connected node: qobj is the
// metric-specific query-object encoding (EncodeVectorQuery /
// EncodeStringQuery), r the metric radius.
func (c *Client) Query(qobj []byte, r float64, timeout time.Duration) (QueryOutcome, error) {
	kind, body, err := c.roundTrip(appendClientQuery(nil, &clientQueryMsg{QObj: qobj, R: r}), timeout)
	if err != nil {
		return QueryOutcome{}, err
	}
	if kind != kindClientResult {
		return QueryOutcome{}, fmt.Errorf("netrt: unexpected reply kind %d", kind)
	}
	res, err := decodeClientResult(body)
	if err != nil {
		return QueryOutcome{}, err
	}
	if res.Err != "" {
		return QueryOutcome{}, fmt.Errorf("netrt: query failed: %s", res.Err)
	}
	return QueryOutcome{Complete: res.Complete, Dropped: res.Dropped, Entries: res.Entries}, nil
}

// Info asks the node for its identity, membership view, and store
// size.
func (c *Client) Info(timeout time.Duration) (Info, error) {
	kind, body, err := c.roundTrip([]byte{kindClientInfo}, timeout)
	if err != nil {
		return Info{}, err
	}
	if kind != kindClientInfoR {
		return Info{}, fmt.Errorf("netrt: unexpected reply kind %d", kind)
	}
	return decodeInfo(body)
}

// Publish inserts one object under id on the ring (routed to the owner
// of its ring key, journaled when the owner is durable, fanned out to
// the owner's replicas). The id must not collide with the
// deterministic corpus.
func (c *Client) Publish(id int32, obj []byte, timeout time.Duration) error {
	return c.mutate(kindClientPublish, &clientMutMsg{ID: id, Obj: obj}, timeout)
}

// Delete removes one entry: a boot-corpus entry by id alone, or a
// published entry by id plus its encoded object.
func (c *Client) Delete(id int32, obj []byte, timeout time.Duration) error {
	return c.mutate(kindClientDelete, &clientMutMsg{ID: id, Obj: obj}, timeout)
}

func (c *Client) mutate(kind byte, msg *clientMutMsg, timeout time.Duration) error {
	k, body, err := c.roundTrip(appendClientMut(nil, kind, msg), timeout)
	if err != nil {
		return err
	}
	if k != kindClientMutR {
		return fmt.Errorf("netrt: unexpected reply kind %d", k)
	}
	res, err := decodeClientMutR(body)
	if err != nil {
		return err
	}
	if res.Err != "" {
		return fmt.Errorf("netrt: %s", res.Err)
	}
	return nil
}

// Close tears the client connection down, reporting the connection's
// teardown error: a caller that cares (lmnode's drain path) can log it,
// everyone else annotates the drop.
func (c *Client) Close() error { return c.conn.Close() }
