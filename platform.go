package landmarkdht

import (
	"fmt"
	"math/rand"
	"time"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/core"
	"landmarkdht/internal/netmodel"
	"landmarkdht/internal/runtime"
	"landmarkdht/internal/runtime/livert"
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
	// MeanRTT calibrates the synthetic latency model (default 180 ms,
	// the King dataset average the paper simulates).
	MeanRTT time.Duration
	// Successors is the Chord successor-list length (default 16).
	Successors int
	// DisablePNS turns off proximity neighbor selection.
	DisablePNS bool
	// WireCodec runs query/result messages through the real binary
	// codec (quantized 2-byte range bounds per the paper's size model)
	// instead of size accounting alone.
	WireCodec bool
	// LossRate drops each overlay message with this probability (fault
	// injection, deterministic per Seed; 0 disables).
	LossRate float64
	// Jitter adds a uniform random extra delay in [0, Jitter) to every
	// message.
	Jitter time.Duration
	// Faults is the fault policy: message loss, duplication, latency
	// faults and timed partitions inject at the overlay, identically on
	// the simulated and the live runtime. When set it supersedes
	// LossRate/Jitter (which remain as shorthands for loss-and-jitter-
	// only policies). FrameDrop and KillConn need a transport, which an
	// in-process platform does not have: New rejects them — set them on
	// NodeOptions.Faults.
	Faults *FaultOptions
	// Retry configures reliable subquery/result delivery (ack, timeout,
	// bounded retransmission with successor failover). The zero value
	// keeps the paper's fire-and-forget behavior.
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
	// Live runs the platform over the live concurrent runtime instead of
	// the discrete-event simulator: the protocol runs in real time on
	// one executor goroutine, retry timers are real timers, and searches
	// may be issued from many goroutines concurrently. Call Close when
	// done.
	Live bool
	// LiveLatencyScale multiplies the modeled network latency in live
	// mode (0, the default, delivers messages as fast as the machine
	// allows; 1 reproduces the latency model in real time).
	LiveLatencyScale float64
	// MaxInbox bounds the live executor's delivery queue: deliveries
	// past the bound are shed (counted in
	// ReliabilityStats.TransportShed) instead of growing the queue
	// without limit. Zero means the default bound (8192); negative
	// means unbounded. Ignored in simulated mode.
	MaxInbox int
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
	if o.MeanRTT <= 0 {
		o.MeanRTT = 180 * time.Millisecond
	}
	if o.Successors <= 0 {
		o.Successors = 16
	}
}

// Platform is a peer-to-peer deployment of the landmark index
// architecture. It hosts any number of Index instances over one
// overlay.
//
// A simulated Platform (the default) must be used from a single
// goroutine: the discrete-event engine is not concurrent — run many
// platforms in parallel instead. A live Platform (Options.Live) runs
// the protocol on its own executor goroutine and serves searches from
// any number of client goroutines concurrently; call Close when done.
type Platform struct {
	// rt is the runtime under the protocol, simulated or live: New's
	// choice, with the bound on one Await in that runtime's own time.
	rt        runtime.Driver
	opTimeout time.Duration
	sys       *core.System
	rng       *rand.Rand
	opts      Options
	plan      *chord.FaultPlan // overlay fault plan (nil when no faults)
}

// One protocol operation may take this long, far above any real
// completion time: a lost completion (all retries exhausted under
// injected faults with no reliability layer) is an error, not a hang.
const (
	simOpTimeout  = 10 * time.Minute // of simulated time
	liveOpTimeout = 30 * time.Second
)

// New builds a stabilized overlay of opts.Nodes nodes.
func New(opts Options) (*Platform, error) {
	if f := opts.Faults; f != nil && (f.FrameDrop != 0 || f.KillConn != 0) {
		return nil, fmt.Errorf("landmarkdht: transport faults need a transport: set them on NodeOptions.Faults")
	}
	opts.fillDefaults()
	model, err := netmodel.NewSyntheticKing(netmodel.KingConfig{
		N: opts.Nodes, MeanRTT: opts.MeanRTT, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Chord.NumSuccessors = opts.Successors
	cfg.Chord.PNS = !opts.DisablePNS
	cfg.EncodeWire = opts.WireCodec
	if opts.Faults != nil && !opts.Faults.Zero() {
		cfg.Chord.Faults = chord.FaultPlanFromPolicy(opts.Faults)
	} else if opts.LossRate > 0 || opts.Jitter > 0 {
		cfg.Chord.Faults = chord.NewFaultPlan().DropAll(opts.LossRate).Jitter(opts.Jitter)
	}
	cfg.Retry = opts.Retry
	cfg.Deadline = opts.Deadline
	cfg.Hedge = opts.Hedge
	cfg.MaxActiveQueries = opts.MaxActiveQueries
	p := &Platform{opts: opts, plan: cfg.Chord.Faults}
	if opts.Live {
		p.rt, p.opTimeout = livert.New(livert.Config{
			Seed: opts.Seed, LatencyScale: opts.LiveLatencyScale, MaxInbox: opts.MaxInbox,
		}), liveOpTimeout
	} else {
		p.rt, p.opTimeout = simrt.New(sim.NewEngine(opts.Seed)), simOpTimeout
	}
	if opts.DataDir != "" {
		// Compaction stamps come from the platform clock (virtual in
		// simulated mode) so durable runs replay deterministically.
		cfg.Store = core.WALStoreFactory(opts.DataDir, core.WALStoreOptions{
			Sync: opts.DataSync, Now: func() int64 { return int64(p.rt.Now()) },
		})
	}
	p.sys = core.NewSystemRuntime(p.rt, p.rt, model, cfg)
	p.rng = rand.New(rand.NewSource(opts.Seed + 99))
	if err := p.protocol(func() error {
		used := map[chord.ID]bool{}
		for i := 0; i < opts.Nodes; i++ {
			id := chord.ID(p.rng.Uint64())
			for used[id] {
				id = chord.ID(p.rng.Uint64())
			}
			used[id] = true
			if _, err := p.sys.AddNode(id, i); err != nil {
				return err
			}
		}
		p.sys.Stabilize()
		return nil
	}); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Close releases the platform's resources. In live mode it stops the
// executor; on a simulated platform it is a no-op. The platform is
// unusable afterwards.
func (p *Platform) Close() { p.rt.Close() }

// protocol runs fn on the platform's protocol execution context:
// synchronously on a simulated platform (the caller's goroutine is the
// context), via the executor on a live one. Every touch of overlay or
// system state goes through it.
func (p *Platform) protocol(fn func() error) error {
	var err error
	if derr := p.rt.Do(func() { err = fn() }); derr != nil {
		return derr
	}
	return err
}

// Nodes returns the current overlay size.
func (p *Platform) Nodes() int {
	var n int
	p.protocol(func() error { n = p.sys.Network().Size(); return nil })
	return n
}

// Loads returns per-node index-entry counts in descending order.
func (p *Platform) Loads() []int {
	var loads []int
	p.protocol(func() error { loads = p.sys.Loads(); return nil })
	return loads
}

// Indexes lists the deployed index scheme names.
func (p *Platform) Indexes() []string {
	var names []string
	p.protocol(func() error { names = p.sys.IndexNames(); return nil })
	return names
}

// LBConfig re-exports the §3.4 dynamic-load-migration knobs.
type LBConfig = core.LBConfig

// EnableLoadBalancing starts periodic load probing and migration.
func (p *Platform) EnableLoadBalancing(cfg LBConfig) error {
	return p.protocol(func() error { return p.sys.EnableLoadBalancing(cfg) })
}

// DisableLoadBalancing stops probing.
func (p *Platform) DisableLoadBalancing() {
	p.protocol(func() error { p.sys.DisableLoadBalancing(); return nil })
}

// Migrations reports completed and aborted load migrations.
func (p *Platform) Migrations() (done, aborted int) {
	p.protocol(func() error { done, aborted = p.sys.LBStats(); return nil })
	return done, aborted
}

// Run lets d of platform time pass (useful to let load balancing settle
// between searches): simulated time on a simulated platform, real time
// on a live one.
func (p *Platform) Run(d time.Duration) { p.rt.Sleep(d) }

// Crash abruptly removes n random nodes (failure injection): in-flight
// messages from the victims are lost with them, routing state is
// patched around each gap, and replicated indexes are repaired onto
// their new successor sets (see Index.Replicate).
func (p *Platform) Crash(n int) int {
	crashed := 0
	p.protocol(func() error {
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
		return nil
	})
	return crashed
}

// Join adds n new nodes to the running overlay (churn injection, the
// counterpart of Crash): each newcomer joins with a random identifier,
// routing tables around it are refreshed, and replicated indexes are
// repaired so it takes over the primary/replica copies for its arc. It
// returns how many nodes actually joined.
func (p *Platform) Join(n int) int {
	joined := 0
	p.protocol(func() error {
		for i := 0; i < n; i++ {
			id := chord.ID(p.rng.Uint64())
			if _, err := p.sys.JoinNode(id, p.rng.Intn(p.opts.Nodes)); err != nil {
				continue
			}
			joined++
		}
		return nil
	})
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
	// TransportShed counts deliveries dropped by the bounded transport
	// queue (Options.MaxInbox in live mode). Always zero on a simulated
	// platform.
	TransportShed int64
	// QueueDepth is the transport delivery queue's depth at snapshot
	// time — an instantaneous saturation gauge, not a counter.
	QueueDepth int
}

// Reliability returns the platform's loss/retry counters.
func (p *Platform) Reliability() ReliabilityStats {
	var rs ReliabilityStats
	p.protocol(func() error {
		rs = ReliabilityStats{
			Dropped:           p.sys.DroppedSubqueries,
			RetriesIssued:     p.sys.RetriesIssued,
			Recovered:         p.sys.RecoveredSubqueries,
			Hedges:            p.sys.HedgesIssued,
			AdmissionRejected: p.sys.AdmissionRejected,
		}
		return nil
	})
	rs.QueueDepth, rs.TransportShed = p.rt.QueueStats()
	return rs
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
	var fs FaultStats
	p.protocol(func() error {
		if p.plan != nil {
			fs.MessagesDropped = p.plan.TotalDropped()
			fs.MessagesDuplicated = p.plan.Duplicated
		}
		return nil
	})
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
	var ds DurabilityStats
	p.protocol(func() error {
		durable, agg := p.sys.RecoverySummary()
		ds = DurabilityStats{
			DurableNodes:    durable,
			RecordsReplayed: agg.RecordsReplayed,
			SnapshotRecords: agg.SnapshotRecords,
			Compactions:     agg.Compactions,
			LogBytes:        agg.LogBytes,
			SnapshotStamp:   agg.SnapshotStamp,
			Transfers:       p.sys.TransferStats(),
		}
		return nil
	})
	return ds
}

// Traffic summarizes overlay traffic since the platform started.
type Traffic struct {
	Messages int64
	Bytes    int64
}

// Traffic returns cumulative message and byte counts.
func (p *Platform) Traffic() Traffic {
	var out Traffic
	p.protocol(func() error {
		tr := p.sys.Network().Traffic()
		out.Messages, out.Bytes = tr.Total()
		return nil
	})
	return out
}

// randomNode picks a live node as a query/publish source.
func (p *Platform) randomNode() chord.ID {
	nodes := p.sys.Nodes()
	return nodes[p.rng.Intn(len(nodes))].ID()
}
