// Package workload implements synthetic generators for the five
// workloads of the paper's Table 1 (CNN image pre-processing, NLP
// training, web trace replay, Filebench Zipfian read, and MDtest
// create) plus their mixture. Each generator builds its portion of the
// namespace and hands every client a deterministic stream of metadata
// operations whose structure reproduces the balancer-relevant
// properties of the original workload: access order (scan vs. skewed
// re-visits), namespace shape (directory fan-out, file sizes), and the
// metadata-to-data operation ratio.
//
// The original datasets (ImageNet, the THUTC corpus, the FSU Apache
// trace) are proprietary or unavailable; the generators substitute
// synthetic equivalents with the same shape, per DESIGN.md.
package workload

import (
	"fmt"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// The generators' fixed shapes, each defined once. They are constants,
// not configuration: Table 1 and the datasets it names fix them, and no
// command, experiment or benchmark workload varies them. The fractions
// are typed so that expressions over them round as float64 arithmetic
// does.
const (
	// cnnFileBytes is the mean ImageNet image size (114.3 KB).
	cnnFileBytes int64 = 114300
	// nlpFileBytes is the mean THUTC corpus file size (2.8 KB).
	nlpFileBytes int64 = 2800
	// nlpMetaOpsPerFile is the metadata ops one NLP file costs (lookup,
	// stats, permission checks, the open); 13 gives the paper's 92.8%
	// metadata ratio.
	nlpMetaOpsPerFile = 13
	// scanStartSpread staggers CNN and NLP client starts over this many
	// ticks, and scanRateJitter varies their speed by +/- this fraction.
	scanStartSpread int64   = 10
	scanRateJitter  float64 = 0.05

	// webFileBytes is the mean served-file size of the web trace.
	webFileBytes int64 = 24 * 1024
	// webDirFanout is the number of files per web directory, and
	// webDirsPerSection groups directories under second-level sections
	// (a department web tree: /web/<section>/<dir>/<page>), giving the
	// dynamic balancers coarse subtrees to move while Dir-Hash pins the
	// fine-grained leaves.
	webDirFanout      = 40
	webDirsPerSection = 12
	// webZipfExponent is the popularity skew of the web trace.
	webZipfExponent float64 = 0.9
	// The hot set rotates by webPhaseShift popularity ranks every
	// webPhaseLen requests.
	webPhaseLen   = 2000
	webPhaseShift = 40
	// webStartSpread and webRateJitter are the web clients' start
	// stagger and speed variation.
	webStartSpread int64   = 40
	webRateJitter  float64 = 0.1

	// zipfFileBytes is the Filebench Zipfian read file size.
	zipfFileBytes int64 = 16 * 1024
	// zipfExponent is the Zipf exponent of the Filebench reads and the
	// read storm (0.98 gives the 80/20 shape).
	zipfExponent float64 = 0.98
)

// OpKind is the kind of a file system operation.
type OpKind int

// Operation kinds. All are metadata operations; an op with DataSize > 0
// additionally transfers that many bytes through the data path when the
// experiment enables it.
const (
	OpLookup OpKind = iota
	OpGetattr
	OpOpen
	OpReaddir
	OpCreate
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case OpLookup:
		return "lookup"
	case OpGetattr:
		return "getattr"
	case OpOpen:
		return "open"
	case OpReaddir:
		return "readdir"
	case OpCreate:
		return "create"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// IsWrite reports whether the kind mutates the namespace. Creates are
// the only writes in the op vocabulary; lookup/getattr/open/readdir all
// read metadata. The lease layer uses this split: reads may be served
// by a lease holder, writes always go to the primary and invalidate any
// outstanding read leases on the subtree.
func (k OpKind) IsWrite() bool { return k == OpCreate }

// Op is one file system operation issued by a client.
type Op struct {
	Kind OpKind
	// Target is the inode the op addresses (nil for creates, which
	// address Parent/Name instead).
	Target *namespace.Inode
	// Parent and Name describe a create.
	Parent *namespace.Inode
	Name   string
	// Size is the file size for creates.
	Size int64
	// DataSize is the number of bytes moved through the data path when
	// data access is enabled (0 for pure-metadata ops).
	DataSize int64
}

// Stream produces a client's operation sequence.
type Stream interface {
	// Next returns the next op, or ok=false when the client's job is
	// complete.
	Next() (op Op, ok bool)
}

// TreeReader is implemented by streams whose Next() consults the live
// namespace tree (trace replay resolves recorded paths against it).
// The engine links a created inode into the tree only when its create
// is served, so it must not draw ops ahead of an unserved create for
// such streams: a lookup recorded after a create only resolves once the
// created inode is linked. Synthetic generators build ops from their
// own state and never read the tree, so they batch freely.
type TreeReader interface {
	ReadsTree() bool
}

// ClientSpec describes one client: its op stream plus scheduling hints.
type ClientSpec struct {
	Stream Stream
	// StartTick delays the client's first op, modelling job-arrival
	// jitter (which spreads scan fronts, as on a real cluster).
	StartTick int64
	// RateScale multiplies the base client op rate (per-client speed
	// variation; 1.0 = nominal).
	RateScale float64
	// Tenant is the index of the tenant the client belongs to (0 when
	// the workload is single-tenant). The QoS layer charges every op
	// the client issues to this tenant's token bucket.
	Tenant int
}

// Generator builds a workload: its namespace and its client streams.
type Generator interface {
	// Name returns the workload's short name (CNN, NLP, Web, Zipf, MD).
	Name() string
	// Setup creates the workload's files under tree and returns one
	// ClientSpec per client. It must be deterministic given src.
	Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error)
}

// MetaStats summarizes the op mix of a stream: the paper's Table 1
// meta-op ratio is MetaOps / (MetaOps + DataOps).
type MetaStats struct {
	MetaOps int
	DataOps int
}

// Ratio returns the metadata-operation ratio in [0, 1].
func (m MetaStats) Ratio() float64 {
	total := m.MetaOps + m.DataOps
	if total == 0 {
		return 0
	}
	return float64(m.MetaOps) / float64(total)
}

// Measure drains a stream and tallies its op mix.
func Measure(s Stream) MetaStats {
	var m MetaStats
	for {
		op, ok := s.Next()
		if !ok {
			return m
		}
		m.MetaOps++
		if op.DataSize > 0 {
			m.DataOps++
		}
	}
}

// opList is a Stream over a pre-materialized op slice.
type opList struct {
	ops []Op
	pos int
}

func (l *opList) Next() (Op, bool) {
	if l.pos >= len(l.ops) {
		return Op{}, false
	}
	op := l.ops[l.pos]
	l.pos++
	return op, true
}

// NewOpList wraps a pre-built op slice as a Stream (used by tests and
// by small custom workloads).
func NewOpList(ops []Op) Stream { return &opList{ops: ops} }

// jitterSpecs assigns start-time and rate jitter to a slice of streams:
// clients start spread over spreadTicks and run at rates in
// [1-rateJitter, 1+rateJitter].
func jitterSpecs(streams []Stream, spreadTicks int64, rateJitter float64, src *rng.Source) []ClientSpec {
	specs := make([]ClientSpec, len(streams))
	for i, s := range streams {
		var start int64
		if spreadTicks > 0 {
			start = src.Int63n(spreadTicks)
		}
		rate := 1.0
		if rateJitter > 0 {
			rate = 1 - rateJitter + 2*rateJitter*src.Float64()
		}
		specs[i] = ClientSpec{Stream: s, StartTick: start, RateScale: rate}
	}
	return specs
}
