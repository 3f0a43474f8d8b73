package netrt

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"landmarkdht/internal/query"
)

// Frame payloads are self-describing: one kind byte followed by the
// gob encoding of that kind's message struct. Unlike the simulation
// path — where delivery callbacks carry prebound local state and the
// wire bytes only prove the size model — a multi-process ring has no
// shared memory, so everything a handler needs travels in the frame.
const (
	// Peer frames (node ↔ node).
	kindHello    byte = 1 // dialer's handshake: identity + membership
	kindWelcome  byte = 2 // listener's handshake response
	kindReject   byte = 3 // handshake refusal (corpus or protocol version mismatch)
	kindAnnounce byte = 4 // membership gossip
	kindQuery    byte = 5 // a query's regions for one next hop, with credit
	kindResult   byte = 6 // one node's answer: credit + entries, to origin
	kindDrop     byte = 7 // unanswerable regions: credit back, to origin

	// Failure detection and replication (node ↔ node). The Rep* stream
	// frames carry fixed binary payloads (internal/wire's region
	// transfer codecs), not gob: they are decoded synchronously on the
	// reader so a hostile or truncated stream surfaces as a typed
	// wire.FrameError and drops the link before anything is scheduled.
	kindPing      byte = 8  // heartbeat probe
	kindPong      byte = 9  // heartbeat answer
	kindRepBegin  byte = 10 // replica stream header (gob repBeginMsg)
	kindRepChunk  byte = 11 // one stream chunk (binary wire.RegionChunk)
	kindRepAck    byte = 12 // chunk acknowledgement (binary wire.RegionAck)
	kindRepDigest byte = 13 // anti-entropy digest (binary wire.RegionDigest)
	kindPublish   byte = 14 // online mutation routed to its owner (gob pubMsg)
	kindPubAck    byte = 15 // mutation outcome back to its origin (gob pubAckMsg)

	// Client frames (client ↔ node, correlated by frame id).
	kindClientHello   byte = 16
	kindClientWelcome byte = 17
	kindClientQuery   byte = 18
	kindClientResult  byte = 19
	kindClientInfo    byte = 20
	kindClientInfoR   byte = 21
	kindClientPublish byte = 22
	kindClientDelete  byte = 23
	kindClientMutR    byte = 24
)

// Member is one ring member: its node ID (a position on the key ring)
// and the TCP address its listener is reachable at.
type Member struct {
	ID   uint64
	Addr string
}

// helloMsg is both sides of the peer handshake (Hello and Welcome
// share the shape): identity, listen address, corpus signature, and a
// full membership snapshot. The signature pins the deterministic
// corpus parameters and the protocol version (corpusSig) — two nodes
// built from different seeds would silently disagree on ownership and
// landmarks, and two versions on what a frame means, so they refuse to
// link.
type helloMsg struct {
	From    uint64
	Addr    string
	Sig     uint64
	Members []Member
}

// announceMsg is the anti-entropy gossip payload: the sender's full
// membership view. Receivers merge; members are never evicted (a
// SIGKILLed process restarts with the same address and identity).
type announceMsg struct {
	Members []Member
}

// queryMsg carries every region of one query bound for one next hop
// (Algorithm 3: subqueries for the same next hop travel together), so
// the query object and the credit travel once per hop, not once per
// sub-cuboid. Origin/OriginAddr let any answering node ship results
// straight back; Epoch identifies the origin's process incarnation — a
// restarted node reuses qids, so returns are routed by (Epoch, QID) and
// frames queued for a dead incarnation cannot corrupt its successor's
// queries; Credit implements distributed termination (the origin's
// initial credit is split once per message across whatever that
// message makes its receiver emit, and Complete means every share came
// home via Result frames with none via Drop); QObj is the
// metric-specific encoding of the query object so answering nodes
// refine candidates by exact distance; TTL bounds forwarding under
// membership-view disagreement. A change to this struct needs a
// protoVersion bump (data.go).
type queryMsg struct {
	Origin     uint64
	OriginAddr string
	Epoch      uint64
	QID        uint64
	Credit     uint64
	Regions    []query.Region
	QObj       []byte
	R          float64
	TTL        int
}

// ResultEntry is one matching object: its corpus index and exact
// metric distance to the query.
type ResultEntry struct {
	Obj  int32
	Dist float64
}

// resultMsg returns one node's answer to one queryMsg — its credit
// share and the entries of every region it resolved locally — to the
// query origin. Epoch echoes the queryMsg's origin incarnation.
type resultMsg struct {
	Epoch   uint64
	QID     uint64
	Credit  uint64
	From    uint64
	Entries []ResultEntry
}

// dropMsg returns a credit share without an answer — the regions of a
// queryMsg its receiver could neither answer nor route: the query can
// still terminate, but not Complete. Epoch echoes the queryMsg's origin
// incarnation.
type dropMsg struct {
	Epoch  uint64
	QID    uint64
	Credit uint64
	From   uint64
	Reason string
}

// pingMsg probes a member's liveness; pongMsg answers it. Seq pairs an
// answer with its probe so a late pong cannot revive a member the
// detector has since re-suspected.
type pingMsg struct {
	From uint64
	Seq  uint64
}

type pongMsg struct {
	From uint64
	Seq  uint64
}

// repBeginMsg opens one replica stream: the owner's region follows as
// Chunks sequenced RegionChunk frames whose reassembled payload decodes
// to Entries entries combining to Digest. The receiver installs the
// copy only when both match — a divergent or torn stream is discarded
// and re-requested by the next anti-entropy exchange.
type repBeginMsg struct {
	Owner    uint64
	Transfer uint64
	Chunks   int
	Entries  int
	Digest   uint64
}

// pubMsg routes one online mutation (publish or delete) to the owner
// of its ring key, exactly as queries route regions. Replica marks the
// owner's fan-out copy to its replica set (applied to the local copy
// of Owner's region, never re-routed, never acked). (Epoch, RID)
// route the ack back to the origin's process incarnation.
type pubMsg struct {
	Origin     uint64
	OriginAddr string
	Epoch      uint64
	RID        uint64
	ID         int32
	Obj        []byte
	Key        uint64
	Delete     bool
	Replica    bool
	Owner      uint64
	TTL        int
}

// pubAckMsg reports one mutation's outcome to its origin.
type pubAckMsg struct {
	Epoch uint64
	RID   uint64
	Err   string
}

// clientWelcomeMsg answers a client handshake.
type clientWelcomeMsg struct {
	ID   uint64
	Addr string
}

// clientQueryMsg asks the node to run one range query.
type clientQueryMsg struct {
	QObj []byte
	R    float64
}

// clientResultMsg is a finished query: Complete ⇒ Entries is the exact
// range-query answer; otherwise it is an honest subset and Dropped
// counts the credit shares that came home unanswered.
type clientResultMsg struct {
	Complete bool
	Dropped  int
	Err      string
	Entries  []ResultEntry
}

// clientMutMsg asks the node for one mutation; the frame's kind byte
// says which. kindClientPublish publishes one object under ID (which
// must not collide with the deterministic corpus); kindClientDelete
// removes one entry — by id alone for corpus entries, or with the object
// bytes for published ids (the bytes re-derive the ring key the delete
// routes by). Both are answered with a clientMutRMsg.
type clientMutMsg struct {
	ID  int32
	Obj []byte
}

// clientMutRMsg is a finished mutation: empty Err means the owner
// journaled and applied it.
type clientMutRMsg struct {
	Err string
}

// encodeMsg builds a frame payload: kind byte + gob body.
func encodeMsg(kind byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(kind)
	if v != nil {
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("netrt: encode kind %d: %w", kind, err)
		}
	}
	return buf.Bytes(), nil
}

// encodeRaw builds a frame payload whose body is already binary (the
// wire region-transfer codecs): kind byte + body, no gob.
func encodeRaw(kind byte, body []byte) []byte {
	out := make([]byte, 0, 1+len(body))
	out = append(out, kind)
	return append(out, body...)
}

// splitMsg separates a frame payload into kind and body.
func splitMsg(payload []byte) (kind byte, body []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("netrt: empty frame payload")
	}
	return payload[0], payload[1:], nil
}

// decodeBody parses a gob body into v.
func decodeBody(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}
