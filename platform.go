package landmarkdht

import (
	"fmt"
	"math/rand"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/core"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/simrt"
	"landmarkdht/internal/sim"
	"landmarkdht/internal/wal"
)

// Options configures a Platform.
type Options struct {
	// Nodes is the overlay size (default 128).
	Nodes int
	// Seed makes the whole simulation deterministic (default 1).
	Seed int64
	// DisablePNS turns off proximity neighbor selection.
	DisablePNS bool
	// WireCodec runs query/result messages through the real binary
	// codec (quantized 2-byte range bounds per the paper's size model)
	// instead of size accounting alone.
	WireCodec bool
	// Faults is the fault policy: message loss, duplication, latency
	// faults and timed partitions inject at the overlay, deterministically
	// per Seed (nil injects nothing; New copies the policy). FrameDrop
	// and KillConn need a transport, which an in-process platform does
	// not have: New rejects them — set them on NodeOptions.Faults.
	Faults *FaultOptions
	// Retry configures reliable delivery of query, result and entry
	// messages (ack, timeout, bounded retransmission with successor
	// failover), for both routers and for Insert, which then fails once
	// every attempt is lost. The zero value keeps the paper's
	// fire-and-forget behavior.
	Retry RetryConfig
	// Deadline, when positive, bounds every query's total time: on
	// expiry the query finishes immediately with whatever results have
	// arrived, marked incomplete (see SearchStats.Complete).
	Deadline time.Duration
	// Hedge configures subquery hedging: a subquery still unanswered
	// Hedge.Delay after shipping is re-sent to the owner's successor
	// replica. Requires Index.Replicate to be useful — without a
	// replica the hedge re-probes the same owner. See core.HedgeConfig.
	Hedge HedgeConfig
	// MaxActiveQueries bounds concurrently active range queries
	// (admission control): past the cap, new queries finish immediately
	// as honest incompletes (Complete=false, the whole region
	// uncovered) and are counted in ReliabilityStats.AdmissionRejected.
	// Zero means unlimited.
	MaxActiveQueries int
	// DataDir, when set, makes every node's store durable: mutations
	// journal to a per-node write-ahead log under this directory (with
	// periodic compacting snapshots), and a platform rebuilt over the
	// same directory recovers each node's region from disk. Empty (the
	// default) keeps the paper's in-memory stores. Snapshot stamps come
	// from the platform clock, so simulated runs stay deterministic.
	DataDir string
	// DataSync selects the journal fsync policy when DataDir is set.
	// The zero value is SyncAlways (an fsync per journal append —
	// maximum durability); SyncInterval trades a bounded window of
	// acknowledged-but-unflushed records for throughput.
	DataSync DataSyncPolicy
}

// DataSyncPolicy re-exports the journal fsync policy (wal.SyncPolicy).
type DataSyncPolicy = wal.SyncPolicy

// Journal fsync policies for Options.DataSync.
const (
	// SyncAlways flushes after every journal append.
	SyncAlways = wal.SyncAlways
	// SyncInterval flushes every 64 appends (and on close/compaction).
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS.
	SyncNever = wal.SyncNever
)

// RetryConfig re-exports the reliable-delivery knobs.
type RetryConfig = core.RetryConfig

// HedgeConfig re-exports the subquery-hedging knobs.
type HedgeConfig = core.HedgeConfig

// FaultOptions re-exports the runtime-agnostic fault policy.
type FaultOptions = runtime.FaultPolicy

// PartitionSpec re-exports the timed partition window.
type PartitionSpec = runtime.PartitionWindow

func (o *Options) fillDefaults() {
	if o.Nodes <= 0 {
		o.Nodes = 128
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Platform is a peer-to-peer deployment of the landmark index
// architecture. It hosts any number of Index instances over one
// overlay.
//
// The overlay runs on the discrete-event simulator, so a Platform must
// be used from a single goroutine — run many platforms in parallel
// instead. The caller's goroutine is the protocol's execution context:
// a search runs the simulation until its answer arrives.
type Platform struct {
	rt   *simrt.RT
	sys  *core.System
	rng  *rand.Rand
	opts Options
}

// opTimeout bounds one protocol operation in simulated time, far above
// any real completion time: a lost completion (all retries exhausted
// under injected faults with no reliability layer) is an error, not a
// hang.
const opTimeout = 10 * time.Minute

// New builds a stabilized overlay of opts.Nodes nodes.
func New(opts Options) (*Platform, error) {
	if f := opts.Faults; f != nil && (f.FrameDrop != 0 || f.KillConn != 0) {
		return nil, fmt.Errorf("landmarkdht: transport faults need a transport: set them on NodeOptions.Faults")
	}
	opts.fillDefaults()
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{
		N: opts.Nodes, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Chord.PNS = !opts.DisablePNS
	cfg.EncodeWire = opts.WireCodec
	cfg.Chord.Faults = opts.Faults
	cfg.Retry = opts.Retry
	cfg.Deadline = opts.Deadline
	cfg.Hedge = opts.Hedge
	cfg.MaxActiveQueries = opts.MaxActiveQueries
	p := &Platform{rt: simrt.New(sim.NewEngine(opts.Seed)), opts: opts}
	if opts.DataDir != "" {
		// Compaction stamps come from the simulated clock so durable
		// runs replay deterministically.
		cfg.Store = core.WALStoreFactory(opts.DataDir, core.WALStoreOptions{
			Sync: opts.DataSync, Now: func() int64 { return int64(p.rt.Now()) },
		})
	}
	p.sys = core.NewSystem(p.rt, model, cfg)
	p.rng = rand.New(rand.NewSource(opts.Seed + 99))
	if _, err := p.sys.Populate(opts.Nodes, p.rng); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Close closes every node's store — a durable one syncs and closes its
// journal — and releases the runtime. The platform is unusable
// afterwards.
func (p *Platform) Close() {
	p.sys.CloseStores()
	p.rt.Close()
}

// Nodes returns the current overlay size.
func (p *Platform) Nodes() int { return p.sys.Network().Size() }

// Loads returns per-node index-entry counts in descending order.
func (p *Platform) Loads() []int { return p.sys.Loads() }

// Indexes lists the deployed index scheme names.
func (p *Platform) Indexes() []string { return p.sys.IndexNames() }

// LBConfig re-exports the §3.4 dynamic-load-migration knobs.
type LBConfig = core.LBConfig

// EnableLoadBalancing starts periodic load probing and migration.
func (p *Platform) EnableLoadBalancing(cfg LBConfig) error {
	return p.sys.EnableLoadBalancing(cfg)
}

// DisableLoadBalancing stops probing.
func (p *Platform) DisableLoadBalancing() { p.sys.DisableLoadBalancing() }

// Migrations reports completed and aborted load migrations.
func (p *Platform) Migrations() (done, aborted int) { return p.sys.LBStats() }

// Run lets d of simulated time pass (useful to let load balancing settle
// between searches).
func (p *Platform) Run(d time.Duration) { p.rt.Sleep(d) }

// Crash abruptly removes n random nodes (failure injection): in-flight
// messages from the victims are lost with them, routing state is
// patched around each gap, and replicated indexes are repaired onto
// their new successor sets (see Index.Replicate).
func (p *Platform) Crash(n int) int {
	crashed := 0
	for i := 0; i < n; i++ {
		nodes := p.sys.Nodes()
		if len(nodes) <= 2 {
			break
		}
		victim := nodes[p.rng.Intn(len(nodes))]
		if err := p.sys.CrashNode(victim.ID()); err != nil {
			continue
		}
		crashed++
	}
	return crashed
}

// Join adds n new nodes to the running overlay (churn injection, the
// counterpart of Crash): each newcomer joins with a random identifier,
// routing tables around it are refreshed, and replicated indexes are
// repaired so it takes over the primary/replica copies for its arc. It
// returns how many nodes actually joined.
func (p *Platform) Join(n int) int {
	joined := 0
	for i := 0; i < n; i++ {
		id := chord.ID(p.rng.Uint64())
		if _, err := p.sys.JoinNode(id, p.rng.Intn(p.opts.Nodes)); err != nil {
			continue
		}
		joined++
	}
	return joined
}

// ReliabilityStats summarizes the fault-injection and reliable-delivery
// counters accumulated since the platform started.
type ReliabilityStats struct {
	// Dropped counts subqueries or results lost for good (fire-and-
	// forget losses, exhausted retries, deadline expiries).
	Dropped int
	// RetriesIssued counts retransmissions sent by the reliability
	// layer; Recovered counts deliveries that succeeded on one.
	RetriesIssued int
	Recovered     int
	// Hedges counts hedged subqueries: still-unanswered subqueries
	// re-sent to the owner's successor replica after Options.Hedge's
	// delay.
	Hedges int
	// AdmissionRejected counts queries refused at admission because
	// Options.MaxActiveQueries concurrent queries were already running;
	// each rejection produced an honest incomplete result.
	AdmissionRejected int
}

// Reliability returns the platform's loss/retry counters.
func (p *Platform) Reliability() ReliabilityStats {
	return ReliabilityStats{
		Dropped:           p.sys.DroppedSubqueries,
		RetriesIssued:     p.sys.RetriesIssued,
		Recovered:         p.sys.RecoveredSubqueries,
		Hedges:            p.sys.HedgesIssued,
		AdmissionRejected: p.sys.AdmissionRejected,
	}
}

// FaultStats counts the faults the platform's overlay injected.
type FaultStats struct {
	// MessagesDropped / MessagesDuplicated count injected losses
	// (including partition casualties) and duplications.
	MessagesDropped    int64
	MessagesDuplicated int64
}

// Faults returns the cumulative injected-fault counters.
func (p *Platform) Faults() FaultStats {
	tr := p.sys.Network().Traffic()
	fs := FaultStats{MessagesDuplicated: tr.Duplicated}
	for _, n := range tr.Dropped {
		fs.MessagesDropped += n
	}
	return fs
}

// DurabilityStats describes the durable-store layer: what recovery
// found when the platform's stores opened, how their journals have
// evolved, and what bulk region transfer has saved over point-wise
// republication. All zero when Options.DataDir is unset (except the
// transfer counters, which accrue on any platform that migrates or
// repairs regions).
type DurabilityStats struct {
	// DurableNodes is how many live nodes run a durable store.
	DurableNodes int
	// RecordsReplayed / SnapshotRecords are summed over nodes: journal
	// records and snapshot records recovered when their stores opened.
	RecordsReplayed int
	SnapshotRecords int
	// Compactions counts snapshot compactions performed since open;
	// LogBytes is the summed current journal size.
	Compactions int
	LogBytes    int64
	// SnapshotStamp is the newest compaction stamp across nodes (the
	// platform clock at that compaction; 0 if never compacted).
	SnapshotStamp int64
	// Transfers is the bulk region-transfer accounting: actual stream
	// cost vs the point-wise counterfactual (see core.TransferStats).
	Transfers TransferStats
}

// TransferStats re-exports the bulk-transfer accounting.
type TransferStats = core.TransferStats

// Durability returns recovery and bulk-transfer statistics.
func (p *Platform) Durability() DurabilityStats {
	durable, agg := p.sys.RecoverySummary()
	return DurabilityStats{
		DurableNodes:    durable,
		RecordsReplayed: agg.RecordsReplayed,
		SnapshotRecords: agg.SnapshotRecords,
		Compactions:     agg.Compactions,
		LogBytes:        agg.LogBytes,
		SnapshotStamp:   agg.SnapshotStamp,
		Transfers:       p.sys.TransferStats(),
	}
}

// Traffic summarizes overlay traffic since the platform started.
type Traffic struct {
	Messages int64
	Bytes    int64
}

// Traffic returns cumulative message and byte counts.
func (p *Platform) Traffic() Traffic {
	tr := p.sys.Network().Traffic()
	var out Traffic
	out.Messages, out.Bytes = tr.Total()
	return out
}

// randomNode picks a live node as a query/publish source.
func (p *Platform) randomNode() chord.ID {
	return p.sys.NodeAt(p.rng.Intn(p.sys.Network().Size()))
}
