package netrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"landmarkdht/internal/lph"
	"landmarkdht/internal/query"
	"landmarkdht/internal/wire"
)

// Frame payloads are self-describing: one kind byte, then that kind's
// body. Unlike the simulation path — where delivery callbacks carry
// prebound local state and the wire bytes only prove the size model — a
// multi-process ring has no shared memory, so everything a handler
// needs travels in the frame.
//
// Every frame, the handshakes' and gossip's included, has a fixed big-endian
// body, written and read by the append…/decode… pair beside its struct:
// an integer travels at its declared width (an int as 64 bits), a
// float64 as its 64 bits, a bool as one bit of a flags byte, a string
// behind a 16-bit length, a byte slice or an element count behind a
// 32-bit one, fields in the order the pair names them. The codecs are
// lossless on purpose. A Complete answer is held to brute-force
// distances, and a cube re-quantised at every hop — what the paper's
// 16-bit size model in wire.EncodeQuery does once — would widen hop by
// hop. An appender writes the kind byte and the body in one exact-size
// growth of dst. A decoder takes the body alone (the kind byte chose
// it), accepts exactly one length, checks every declared count against
// the bytes left before it allocates, copies what it keeps — the reader
// reuses its buffer — and refuses with a *wire.FrameError and a zero
// message, which drops the link. Both ends of these frames are netrt,
// so the format stays in this file; a layout change needs a
// protoVersion bump (data.go).
//
// A ring member travels as its listen address and nothing else: its
// position on the ring is NodeID of that address, derived by the
// decoder, so no frame can name a position and point it somewhere else.
//
// The handshake bodies — hello, welcome and reject, peer and client —
// open with the one piece of layout no version may move: the sender's
// protoVersion as 32 bits (bodyVersion reads it; on the peer handshake
// the signature follows). A side that reads another version there looks
// at nothing behind it, and refuses by naming both.
const (
	// Peer frames (node ↔ node).
	kindHello    byte = 1 // dialer's handshake: identity + membership (helloMsg)
	kindWelcome  byte = 2 // listener's handshake response (helloMsg)
	kindReject   byte = 3 // handshake refusal, as the refuser's own welcome would open (peers: helloMsg; clients: clientWelcomeMsg)
	kindAnnounce byte = 4 // membership gossip (announceMsg)
	kindQuery    byte = 5 // a query's regions for one next hop, with credit (queryMsg)
	kindResult   byte = 6 // one node's answer: credit + entries, to origin (resultMsg)
	kindDrop     byte = 7 // unanswerable regions: credit back, to origin (dropMsg)

	// Failure detection, replication and mutations (node ↔ node). Like
	// every peer frame they are decoded synchronously on the reader, so a
	// hostile or truncated stream surfaces as a typed wire.FrameError and
	// drops the link before anything is scheduled.
	kindPing      byte = 8  // heartbeat probe (pingMsg)
	kindPong      byte = 9  // heartbeat answer (pingMsg)
	kindRepChunk  byte = 11 // one replica stream chunk, naming its stream (repChunkMsg)
	kindRepAck    byte = 12 // chunk acknowledgement (repAckMsg)
	kindRepDigest byte = 13 // anti-entropy digest (repDigestMsg)
	kindPublish   byte = 14 // online mutation routed to its owner (pubMsg)
	kindPubAck    byte = 15 // mutation outcome back to its origin (pubAckMsg)

	// Client frames (client ↔ node, correlated by frame id).
	kindClientHello   byte = 16 // clientWelcomeMsg carrying the client's Version
	kindClientWelcome byte = 17 // clientWelcomeMsg
	kindClientQuery   byte = 18 // clientQueryMsg
	kindClientResult  byte = 19 // clientResultMsg
	kindClientInfo    byte = 20 // empty
	kindClientInfoR   byte = 21 // Info
	kindClientPublish byte = 22 // clientMutMsg
	kindClientDelete  byte = 23 // clientMutMsg
	kindClientMutR    byte = 24 // clientMutRMsg
)

// Member is one ring member: the TCP address its listener is reachable
// at and its node ID, its position on the key ring — always
// NodeID(Addr), which is why only the address travels.
type Member struct {
	ID   uint64
	Addr string
}

// memberAt is the member listening at addr.
func memberAt(addr string) Member { return Member{ID: NodeID(addr), Addr: addr} }

// appendMembers appends a member list: a count, then each address.
func appendMembers(dst []byte, ms []Member) []byte {
	dst = appendU32(dst, uint32(len(ms)))
	for _, m := range ms {
		dst = appendStr(dst, m.Addr)
	}
	return dst
}

func membersSize(ms []Member) int {
	size := 0
	for _, m := range ms {
		size += memberMin + len(m.Addr)
	}
	return size
}

func (r *bodyReader) members() []Member {
	n := r.count(memberMin)
	if n == 0 {
		return nil
	}
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = memberAt(r.str())
	}
	return ms
}

// helloMsg is both sides of the peer handshake (Hello and Welcome
// share the shape) and its refusal: the sender's protocol version and
// corpus signature — the prefix bodyVersion documents — then its listen
// address and a full membership snapshot. The signature pins the
// deterministic corpus parameters and the protocol version (corpusSig) —
// two nodes built from different seeds would silently disagree on
// ownership and landmarks, and two versions on what a frame means, so
// they refuse to link. A kindReject is the refuser's hello without its
// view: all its reader needs is the prefix.
type helloMsg struct {
	Version uint32
	Sig     uint64
	Self    Member
	Members []Member
}

// appendHello appends a kindHello, kindWelcome or kindReject payload:
// Version, Sig, Self's address, Members.
func appendHello(dst []byte, kind byte, h *helloMsg) []byte {
	dst = append(slices.Grow(dst, 1+helloFixed+len(h.Self.Addr)+membersSize(h.Members)), kind)
	dst = appendU32(dst, h.Version)
	dst = appendU64(dst, h.Sig)
	dst = appendStr(dst, h.Self.Addr)
	return appendMembers(dst, h.Members)
}

func decodeHello(body []byte) (helloMsg, error) {
	r := bodyReader{b: body}
	h := helloMsg{Version: r.u32(), Sig: r.u64(), Self: memberAt(r.str()), Members: r.members()}
	return decoded(&r, h, "hello")
}

// bodyVersion reads the protoVersion a handshake body opens with,
// whatever follows it. A body too short to hold one reads as version 0,
// which nothing speaks.
func bodyVersion(body []byte) uint32 {
	if len(body) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(body)
}

// announceMsg is the anti-entropy gossip payload: the sender's full
// membership view. Receivers merge; members are never evicted (a
// SIGKILLed process restarts with the same address and identity).
type announceMsg struct {
	Members []Member
}

// appendAnnounce appends a kindAnnounce payload: Members.
func appendAnnounce(dst []byte, a *announceMsg) []byte {
	dst = append(slices.Grow(dst, 1+announceFixed+membersSize(a.Members)), kindAnnounce)
	return appendMembers(dst, a.Members)
}

func decodeAnnounce(body []byte) (announceMsg, error) {
	r := bodyReader{b: body}
	a := announceMsg{Members: r.members()}
	return decoded(&r, a, "announce")
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
// membership-view disagreement.
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

// Encoded sizes: what each body takes before its variable-length
// fields (length prefixes included), and what one element of each
// repeated field takes at least. The appenders size their one growth
// from these, the decoders check declared counts against them, and
// sendResult derives the most entries one frame can carry.
const (
	helloFixed       = 4 + 8 + 2 + 4        // Version, Sig; own-address and member-count prefixes
	memberMin        = 2                    // a member is its address: the length prefix
	announceFixed    = 4                    // member-count prefix
	queryFixed       = 6*8 + 2 + 4 + 4      // six 64-bit fields; address, object and region-count prefixes
	regionFixed      = 8 + 8 + 4            // PreKey, PreLen; cube-length prefix
	boundsBytes      = 8 + 8                // Lo, Hi
	resultFixed      = 4*8 + 4              // four 64-bit fields; entry-count prefix
	resultEntryBytes = 4 + 8                // Obj, Dist
	dropFixed        = 4*8 + 2              // four 64-bit fields; reason prefix
	pingBytes        = 8 + 8                // From, Seq
	repChunkFixed    = 8 + 3*4 + 8 + 4      // Transfer, Seq, Chunks, Items, Digest; data prefix
	repAckBytes      = 8 + 4                // Transfer, Seq
	repDigestBytes   = 8 + 4 + 8            // Owner, Items, Digest
	pubFixed         = 6*8 + 4 + 1 + 2 + 4  // six 64-bit fields, ID, flags; address and object prefixes
	pubAckFixed      = 2*8 + 2              // Epoch, RID; error prefix
	clientHelloFixed = 4 + 2                // Version; address prefix
	clientQueryFixed = 8 + 4                // R; object prefix
	clientResFixed   = 1 + 8 + 2 + 4        // flags, Dropped; error and entry-count prefixes
	clientMutFixed   = 4 + 4                // ID; object prefix
	clientMutRFixed  = 2                    // error prefix
	infoFixed        = 10*8 + 1 + 2 + 4 + 4 // ten 64-bit fields, flags; address, member- and down-count prefixes
)

// appendQuery appends a kindQuery payload: Origin, Epoch, QID, Credit,
// R, TTL, OriginAddr, QObj, then the regions, each PreKey, PreLen and
// its cube's (Lo, Hi) pairs. A region travels as it is, whatever its
// cube's length: what process refuses as malformed must arrive as that.
func appendQuery(dst []byte, q *queryMsg) []byte {
	size := 1 + queryFixed + len(q.OriginAddr) + len(q.QObj)
	for i := range q.Regions {
		size += regionFixed + boundsBytes*len(q.Regions[i].Cube)
	}
	dst = append(slices.Grow(dst, size), kindQuery)
	dst = appendU64(dst, q.Origin)
	dst = appendU64(dst, q.Epoch)
	dst = appendU64(dst, q.QID)
	dst = appendU64(dst, q.Credit)
	dst = appendF64(dst, q.R)
	dst = appendInt(dst, q.TTL)
	dst = appendStr(dst, q.OriginAddr)
	dst = appendBytes(dst, q.QObj)
	dst = appendU32(dst, uint32(len(q.Regions)))
	for i := range q.Regions {
		reg := &q.Regions[i]
		dst = appendU64(dst, reg.PreKey)
		dst = appendInt(dst, reg.PreLen)
		dst = appendU32(dst, uint32(len(reg.Cube)))
		for _, b := range reg.Cube {
			dst = appendF64(dst, b.Lo)
			dst = appendF64(dst, b.Hi)
		}
	}
	return dst
}

func decodeQuery(body []byte) (queryMsg, error) {
	r := bodyReader{b: body}
	q := queryMsg{Origin: r.u64(), Epoch: r.u64(), QID: r.u64(), Credit: r.u64(),
		R: r.f64(), TTL: r.int(), OriginAddr: r.str(), QObj: r.bytes()}
	if n := r.count(regionFixed); n > 0 {
		q.Regions = make([]query.Region, n)
	}
	for i := range q.Regions {
		reg := &q.Regions[i]
		reg.PreKey, reg.PreLen = r.u64(), r.int()
		if k := r.count(boundsBytes); k > 0 {
			reg.Cube = make([]lph.Bounds, k)
		}
		for j := range reg.Cube {
			reg.Cube[j] = lph.Bounds{Lo: r.f64(), Hi: r.f64()}
		}
	}
	return decoded(&r, q, "query")
}

// ResultEntry is one matching object: its corpus index and exact
// metric distance to the query.
type ResultEntry struct {
	Obj  int32
	Dist float64
}

func appendEntries(dst []byte, ents []ResultEntry) []byte {
	dst = appendU32(dst, uint32(len(ents)))
	for _, e := range ents {
		dst = appendU32(dst, uint32(e.Obj))
		dst = appendF64(dst, e.Dist)
	}
	return dst
}

func (r *bodyReader) entries() []ResultEntry {
	n := r.count(resultEntryBytes)
	if n == 0 {
		return nil
	}
	ents := make([]ResultEntry, n)
	for i := range ents {
		ents[i] = ResultEntry{Obj: int32(r.u32()), Dist: r.f64()}
	}
	return ents
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

// appendResult appends a kindResult payload: Epoch, QID, Credit, From,
// then the entries, each Obj and Dist.
func appendResult(dst []byte, m *resultMsg) []byte {
	dst = append(slices.Grow(dst, 1+resultFixed+resultEntryBytes*len(m.Entries)), kindResult)
	dst = appendU64(dst, m.Epoch)
	dst = appendU64(dst, m.QID)
	dst = appendU64(dst, m.Credit)
	dst = appendU64(dst, m.From)
	return appendEntries(dst, m.Entries)
}

func decodeResult(body []byte) (resultMsg, error) {
	r := bodyReader{b: body}
	m := resultMsg{Epoch: r.u64(), QID: r.u64(), Credit: r.u64(), From: r.u64(), Entries: r.entries()}
	return decoded(&r, m, "result")
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

// appendDrop appends a kindDrop payload: Epoch, QID, Credit, From,
// Reason.
func appendDrop(dst []byte, m *dropMsg) []byte {
	dst = append(slices.Grow(dst, 1+dropFixed+len(m.Reason)), kindDrop)
	dst = appendU64(dst, m.Epoch)
	dst = appendU64(dst, m.QID)
	dst = appendU64(dst, m.Credit)
	dst = appendU64(dst, m.From)
	return appendStr(dst, m.Reason)
}

func decodeDrop(body []byte) (dropMsg, error) {
	r := bodyReader{b: body}
	m := dropMsg{Epoch: r.u64(), QID: r.u64(), Credit: r.u64(), From: r.u64(), Reason: r.str()}
	return decoded(&r, m, "drop")
}

// pingMsg probes a member's liveness and, echoed under kindPong,
// answers the probe. Seq pairs an answer with its probe so a late pong
// cannot revive a member the detector has since re-suspected.
type pingMsg struct {
	From uint64
	Seq  uint64
}

// appendPing appends a kindPing or kindPong payload: From, Seq.
func appendPing(dst []byte, kind byte, m pingMsg) []byte {
	dst = append(slices.Grow(dst, 1+pingBytes), kind)
	dst = appendU64(dst, m.From)
	return appendU64(dst, m.Seq)
}

func decodePing(body []byte) (pingMsg, error) {
	r := bodyReader{b: body}
	m := pingMsg{From: r.u64(), Seq: r.u64()}
	return decoded(&r, m, "ping")
}

// repChunkMsg is one chunk of a replica stream, and names the whole
// stream: the owner's delta travels as Chunks sequenced chunks under
// Transfer, and their reassembled Data decodes to Items items
// (tombstones and extras) combining to Digest. The receiver stages the
// stream from whichever chunk arrives first and installs the copy only
// when the decoded delta matches both — a divergent or torn stream is
// discarded and re-requested by the next anti-entropy exchange.
type repChunkMsg struct {
	Transfer uint64
	Seq      uint32
	Chunks   uint32
	Items    uint32
	Digest   uint64
	Data     []byte
}

// appendRepChunk appends a kindRepChunk payload: Transfer, Seq, Chunks,
// Items, Digest, Data.
func appendRepChunk(dst []byte, m *repChunkMsg) []byte {
	dst = append(slices.Grow(dst, 1+repChunkFixed+len(m.Data)), kindRepChunk)
	dst = appendU64(dst, m.Transfer)
	dst = appendU32(dst, m.Seq)
	dst = appendU32(dst, m.Chunks)
	dst = appendU32(dst, m.Items)
	dst = appendU64(dst, m.Digest)
	return appendBytes(dst, m.Data)
}

func decodeRepChunk(body []byte) (repChunkMsg, error) {
	r := bodyReader{b: body}
	m := repChunkMsg{Transfer: r.u64(), Seq: r.u32(), Chunks: r.u32(), Items: r.u32(), Digest: r.u64(), Data: r.bytes()}
	return decoded(&r, m, "replica chunk")
}

// repAckMsg acknowledges chunk Seq of stream Transfer to its sender,
// returning its credit to the sender's window.
type repAckMsg struct {
	Transfer uint64
	Seq      uint32
}

// appendRepAck appends a kindRepAck payload: Transfer, Seq.
func appendRepAck(dst []byte, m *repAckMsg) []byte {
	dst = append(slices.Grow(dst, 1+repAckBytes), kindRepAck)
	dst = appendU64(dst, m.Transfer)
	return appendU32(dst, m.Seq)
}

func decodeRepAck(body []byte) (repAckMsg, error) {
	r := bodyReader{b: body}
	m := repAckMsg{Transfer: r.u64(), Seq: r.u32()}
	return decoded(&r, m, "replica ack")
}

// repDigestMsg is one side's summary of Owner's delta in an anti-entropy
// exchange: its item count and its digest (the XOR of its items'). The
// owner advertises its own; a replica whose copy disagrees answers with
// the copy's, for the same Owner.
type repDigestMsg struct {
	Owner  uint64
	Items  uint32
	Digest uint64
}

// appendRepDigest appends a kindRepDigest payload: Owner, Items, Digest.
func appendRepDigest(dst []byte, m *repDigestMsg) []byte {
	dst = append(slices.Grow(dst, 1+repDigestBytes), kindRepDigest)
	dst = appendU64(dst, m.Owner)
	dst = appendU32(dst, m.Items)
	return appendU64(dst, m.Digest)
}

func decodeRepDigest(body []byte) (repDigestMsg, error) {
	r := bodyReader{b: body}
	m := repDigestMsg{Owner: r.u64(), Items: r.u32(), Digest: r.u64()}
	return decoded(&r, m, "replica digest")
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

const (
	pubFlagDelete  = 1 << 0
	pubFlagReplica = 1 << 1
)

// appendPub appends a kindPublish payload: Origin, Epoch, RID, Key,
// Owner, TTL, ID, the Delete and Replica flags, OriginAddr, Obj.
func appendPub(dst []byte, m *pubMsg) []byte {
	dst = append(slices.Grow(dst, 1+pubFixed+len(m.OriginAddr)+len(m.Obj)), kindPublish)
	dst = appendU64(dst, m.Origin)
	dst = appendU64(dst, m.Epoch)
	dst = appendU64(dst, m.RID)
	dst = appendU64(dst, m.Key)
	dst = appendU64(dst, m.Owner)
	dst = appendInt(dst, m.TTL)
	dst = appendU32(dst, uint32(m.ID))
	var flags byte
	if m.Delete {
		flags |= pubFlagDelete
	}
	if m.Replica {
		flags |= pubFlagReplica
	}
	dst = append(dst, flags)
	dst = appendStr(dst, m.OriginAddr)
	return appendBytes(dst, m.Obj)
}

func decodePub(body []byte) (pubMsg, error) {
	r := bodyReader{b: body}
	m := pubMsg{Origin: r.u64(), Epoch: r.u64(), RID: r.u64(), Key: r.u64(), Owner: r.u64(),
		TTL: r.int(), ID: int32(r.u32())}
	flags := r.flags(pubFlagDelete | pubFlagReplica)
	m.Delete, m.Replica = flags&pubFlagDelete != 0, flags&pubFlagReplica != 0
	m.OriginAddr, m.Obj = r.str(), r.bytes()
	return decoded(&r, m, "publish")
}

// pubAckMsg reports one mutation's outcome to its origin.
type pubAckMsg struct {
	Epoch uint64
	RID   uint64
	Err   string
}

// appendPubAck appends a kindPubAck payload: Epoch, RID, Err.
func appendPubAck(dst []byte, m *pubAckMsg) []byte {
	dst = append(slices.Grow(dst, 1+pubAckFixed+len(m.Err)), kindPubAck)
	dst = appendU64(dst, m.Epoch)
	dst = appendU64(dst, m.RID)
	return appendStr(dst, m.Err)
}

func decodePubAck(body []byte) (pubAckMsg, error) {
	r := bodyReader{b: body}
	m := pubAckMsg{Epoch: r.u64(), RID: r.u64(), Err: r.str()}
	return decoded(&r, m, "publish ack")
}

// clientWelcomeMsg is both sides of the client handshake, and opens
// with the version as every handshake body does (bodyVersion). The
// client's hello carries only Version; the node answers
// kindClientWelcome with its own Version and its listen address — its
// identity is NodeID of that — or kindReject with the same body when the
// versions differ, so that either side can name both.
type clientWelcomeMsg struct {
	Version uint32
	Addr    string
}

// appendClientWelcome appends a kindClientHello, kindClientWelcome or
// kindReject payload: Version, Addr.
func appendClientWelcome(dst []byte, kind byte, m *clientWelcomeMsg) []byte {
	dst = append(slices.Grow(dst, 1+clientHelloFixed+len(m.Addr)), kind)
	dst = appendU32(dst, m.Version)
	return appendStr(dst, m.Addr)
}

func decodeClientWelcome(body []byte) (clientWelcomeMsg, error) {
	r := bodyReader{b: body}
	m := clientWelcomeMsg{Version: r.u32(), Addr: r.str()}
	return decoded(&r, m, "client handshake")
}

// clientQueryMsg asks the node to run one range query.
type clientQueryMsg struct {
	QObj []byte
	R    float64
}

// appendClientQuery appends a kindClientQuery payload: R, QObj.
func appendClientQuery(dst []byte, m *clientQueryMsg) []byte {
	dst = append(slices.Grow(dst, 1+clientQueryFixed+len(m.QObj)), kindClientQuery)
	dst = appendF64(dst, m.R)
	return appendBytes(dst, m.QObj)
}

func decodeClientQuery(body []byte) (clientQueryMsg, error) {
	r := bodyReader{b: body}
	m := clientQueryMsg{R: r.f64(), QObj: r.bytes()}
	return decoded(&r, m, "client query")
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

const clientResFlagComplete = 1 << 0

// appendClientResult appends a kindClientResult payload: the Complete
// flag, Dropped, Err, then the entries, each Obj and Dist.
func appendClientResult(dst []byte, m *clientResultMsg) []byte {
	dst = append(slices.Grow(dst, 1+clientResFixed+len(m.Err)+resultEntryBytes*len(m.Entries)), kindClientResult)
	var flags byte
	if m.Complete {
		flags |= clientResFlagComplete
	}
	dst = append(dst, flags)
	dst = appendInt(dst, m.Dropped)
	dst = appendStr(dst, m.Err)
	return appendEntries(dst, m.Entries)
}

func decodeClientResult(body []byte) (clientResultMsg, error) {
	r := bodyReader{b: body}
	m := clientResultMsg{Complete: r.flags(clientResFlagComplete) != 0,
		Dropped: r.int(), Err: r.str(), Entries: r.entries()}
	return decoded(&r, m, "client result")
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

// appendClientMut appends a kindClientPublish or kindClientDelete
// payload: ID, Obj.
func appendClientMut(dst []byte, kind byte, m *clientMutMsg) []byte {
	dst = append(slices.Grow(dst, 1+clientMutFixed+len(m.Obj)), kind)
	dst = appendU32(dst, uint32(m.ID))
	return appendBytes(dst, m.Obj)
}

func decodeClientMut(body []byte) (clientMutMsg, error) {
	r := bodyReader{b: body}
	m := clientMutMsg{ID: int32(r.u32()), Obj: r.bytes()}
	return decoded(&r, m, "client mutation")
}

// clientMutRMsg is a finished mutation: empty Err means the owner
// journaled and applied it.
type clientMutRMsg struct {
	Err string
}

// appendClientMutR appends a kindClientMutR payload: Err.
func appendClientMutR(dst []byte, m *clientMutRMsg) []byte {
	dst = append(slices.Grow(dst, 1+clientMutRFixed+len(m.Err)), kindClientMutR)
	return appendStr(dst, m.Err)
}

func decodeClientMutR(body []byte) (clientMutRMsg, error) {
	r := bodyReader{b: body}
	m := clientMutRMsg{Err: r.str()}
	return decoded(&r, m, "client mutation reply")
}

const infoFlagRecovered = 1 << 0

// appendInfo appends a kindClientInfoR payload: Info's fields in the
// order the struct declares them (client.go), Recovered as a flag.
func appendInfo(dst []byte, m *Info) []byte {
	dst = append(slices.Grow(dst, 1+infoFixed+len(m.Addr)+membersSize(m.Members)+8*len(m.Down)), kindClientInfoR)
	dst = appendU64(dst, m.ID)
	dst = appendStr(dst, m.Addr)
	dst = appendMembers(dst, m.Members)
	dst = appendInt(dst, m.Store)
	var flags byte
	if m.Recovered {
		flags |= infoFlagRecovered
	}
	dst = append(dst, flags)
	dst = appendInt(dst, m.Replayed)
	dst = appendInt(dst, m.Replicas)
	dst = appendU32(dst, uint32(len(m.Down)))
	for _, id := range m.Down {
		dst = appendU64(dst, id)
	}
	dst = appendInt(dst, m.SyncedOwners)
	dst = appendInt(dst, m.Extras)
	dst = appendU64(dst, uint64(m.Repairs))
	dst = appendU64(dst, uint64(m.RepairChunks))
	dst = appendU64(dst, m.Tested)
	return appendU64(dst, m.Refined)
}

func decodeInfo(body []byte) (Info, error) {
	r := bodyReader{b: body}
	m := Info{ID: r.u64(), Addr: r.str(), Members: r.members(), Store: r.int(),
		Recovered: r.flags(infoFlagRecovered) != 0, Replayed: r.int(), Replicas: r.int()}
	if n := r.count(8); n > 0 {
		m.Down = make([]uint64, n)
	}
	for i := range m.Down {
		m.Down[i] = r.u64()
	}
	m.SyncedOwners, m.Extras = r.int(), r.int()
	m.Repairs, m.RepairChunks = int64(r.u64()), int64(r.u64())
	m.Tested, m.Refined = r.u64(), r.u64()
	return decoded(&r, m, "info")
}

// ---- binary primitives ----
//
// The frames above and the durable records (durable.go) are written and
// read with these alone.

func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendInt(dst []byte, v int) []byte    { return appendU64(dst, uint64(int64(v))) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

// appendStr appends a string behind its 16-bit length. The strings on
// these frames are a node's TCP listen address and diagnostic text; one
// that outgrows the prefix is cut there rather than refused.
func appendStr(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	return append(appendU16(dst, uint16(len(s))), s...)
}

// appendBytes appends a byte slice behind its 32-bit length (a frame
// holds at most wire.MaxFramePayload bytes, so the prefix cannot
// overflow on a payload the link would carry).
func appendBytes(dst, p []byte) []byte {
	return append(appendU32(dst, uint32(len(p))), p...)
}

// bodyReader walks a frame body for the decoders. A take the bytes left
// cannot cover uses the body up and sets short instead of indexing past
// it, so a decoder reads straight through and checks once, in decoded.
type bodyReader struct {
	b     []byte
	off   int
	short bool
}

// refuse marks the body malformed and uses it up, whatever is left.
func (r *bodyReader) refuse() { r.off, r.short = len(r.b), true }

// take returns the next n bytes, or nil when fewer are left.
func (r *bodyReader) take(n int) []byte {
	if n < 0 || n > len(r.b)-r.off {
		r.refuse()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *bodyReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (r *bodyReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *bodyReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (r *bodyReader) int() int     { return int(int64(r.u64())) }
func (r *bodyReader) f64() float64 { return math.Float64frombits(r.u64()) }

// flags reads a flags byte and refuses bits outside known, so that what
// a decoder accepts re-encodes to the same bytes.
func (r *bodyReader) flags(known byte) byte {
	p := r.take(1)
	if p == nil || p[0]&^known != 0 {
		r.refuse()
		return 0
	}
	return p[0]
}

// str and bytes copy out a length-prefixed field, rest whatever is left;
// a length is checked against the bytes left before anything is copied.
func (r *bodyReader) str() string   { return string(r.take(int(r.u16()))) }
func (r *bodyReader) bytes() []byte { return r.clone(int(r.u32())) }
func (r *bodyReader) rest() []byte  { return r.clone(len(r.b) - r.off) }

func (r *bodyReader) clone(n int) []byte {
	p := r.take(n)
	if len(p) == 0 {
		return nil
	}
	return bytes.Clone(p)
}

// count reads a 32-bit element count, and fits checks one: n when so
// many elements, of at least each bytes, are still there. A decoder
// makes nothing a hostile count asks for.
func (r *bodyReader) count(each int) int { return r.fits(int(r.u32()), each) }

func (r *bodyReader) fits(n, each int) int {
	if n < 0 || n > (len(r.b)-r.off)/each {
		r.refuse()
		return 0
	}
	return n
}

// decoded is every decoder's last step: m when no take came up short
// and nothing is left over, the zero message and the refusal otherwise.
func decoded[M any](r *bodyReader, m M, what string) (M, error) {
	if r.short || r.off != len(r.b) {
		var zero M
		return zero, &wire.FrameError{Reason: "malformed " + what, Size: len(r.b)}
	}
	return m, nil
}

// splitMsg separates a frame payload into kind and body.
func splitMsg(payload []byte) (kind byte, body []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("netrt: empty frame payload")
	}
	return payload[0], payload[1:], nil
}
