package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/namespace"
	"repro/internal/rng"
)

// The trace file format is one operation per line:
//
//	<client> <op> <path> [dataBytes]
//
// where op is one of lookup, getattr, open, readdir, create. Lines
// starting with '#' and blank lines are ignored. Paths are absolute.
// For non-create ops the file (or directory, for readdir) is created
// ahead of the replay; creates happen live, as in the original run.
// This is how external traces — the paper replays an Apache access
// log — are brought into the simulator.

// traceOp is one parsed line.
type traceOp struct {
	kind namespace.Ino // placeholder to keep struct alignment honest
}

// parsedOp is one trace line before namespace resolution.
type parsedOp struct {
	client int
	kind   OpKind
	path   string
	data   int64
}

// TraceFile replays a recorded operation trace.
type TraceFile struct {
	ops     []parsedOp
	clients int
}

// ParseTrace reads a trace. It returns an error with line context for
// malformed input, which includes client ids that are not dense: every
// id in [0, max] must issue an op, so a trace defines no more clients
// than it has lines (a cluster allocates per client).
func ParseTrace(r io.Reader) (*TraceFile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	tf := &TraceFile{}
	lineNo, maxLine := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("workload: trace line %d: want 'client op path [bytes]', got %q", lineNo, line)
		}
		client, err := strconv.Atoi(fields[0])
		if err != nil || client < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad client %q", lineNo, fields[0])
		}
		kind, err := parseOpKind(fields[1])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %v", lineNo, err)
		}
		path := fields[2]
		if !strings.HasPrefix(path, "/") {
			return nil, fmt.Errorf("workload: trace line %d: path must be absolute: %q", lineNo, path)
		}
		var data int64
		if len(fields) > 3 {
			data, err = strconv.ParseInt(fields[3], 10, 64)
			if err != nil || data < 0 {
				return nil, fmt.Errorf("workload: trace line %d: bad byte count %q", lineNo, fields[3])
			}
		}
		tf.ops = append(tf.ops, parsedOp{client: client, kind: kind, path: path, data: data})
		if client+1 > tf.clients {
			tf.clients, maxLine = client+1, lineNo
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(tf.ops) == 0 {
		return nil, fmt.Errorf("workload: trace contains no operations")
	}
	// n ops name at most n ids, so the first id without an op is at most
	// n: marking ids up to there finds it without allocating per id.
	seen := make([]bool, min(tf.clients, len(tf.ops)+1))
	for _, op := range tf.ops {
		if op.client < len(seen) {
			seen[op.client] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("workload: trace line %d: client %d, but no line has client %d: client ids must be dense from 0",
				maxLine, tf.clients-1, id)
		}
	}
	return tf, nil
}

func parseOpKind(s string) (OpKind, error) {
	switch s {
	case "lookup":
		return OpLookup, nil
	case "getattr":
		return OpGetattr, nil
	case "open":
		return OpOpen, nil
	case "readdir":
		return OpReaddir, nil
	case "create":
		return OpCreate, nil
	default:
		return 0, fmt.Errorf("unknown op kind %q", s)
	}
}

// Name implements Generator.
func (g *TraceFile) Name() string { return "Trace" }

// Clients returns the number of client streams the trace defines.
func (g *TraceFile) Clients() int { return g.clients }

// Setup implements Generator. The clients argument must equal the
// trace's own client count (use Clients() to size the cluster).
func (g *TraceFile) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]ClientSpec, error) {
	if clients != g.clients {
		return nil, fmt.Errorf("workload: trace defines %d clients, cluster configured for %d", g.clients, clients)
	}
	// Pre-create everything non-create ops touch.
	for _, op := range g.ops {
		if op.kind == OpCreate {
			// Only the parent must exist ahead of time.
			if _, err := tree.MkdirAll(parentPath(op.path)); err != nil {
				return nil, fmt.Errorf("workload: trace setup %q: %w", op.path, err)
			}
			continue
		}
		if op.kind == OpReaddir {
			if _, err := tree.MkdirAll(op.path); err != nil {
				return nil, fmt.Errorf("workload: trace setup %q: %w", op.path, err)
			}
			continue
		}
		if _, err := tree.Lookup(op.path); err == nil {
			continue
		}
		if _, err := tree.MkdirAll(parentPath(op.path)); err != nil {
			return nil, fmt.Errorf("workload: trace setup %q: %w", op.path, err)
		}
		parent, _ := tree.Lookup(parentPath(op.path))
		size := op.data
		if _, err := tree.Create(parent, basename(op.path), size); err != nil {
			return nil, fmt.Errorf("workload: trace setup %q: %w", op.path, err)
		}
	}

	// Split into per-client op sequences, resolving targets lazily so
	// creates see the tree as it exists at replay time.
	perClient := make([][]parsedOp, g.clients)
	for _, op := range g.ops {
		perClient[op.client] = append(perClient[op.client], op)
	}
	specs := make([]ClientSpec, g.clients)
	for c := range specs {
		specs[c] = ClientSpec{
			Stream:    &traceStream{tree: tree, ops: perClient[c]},
			RateScale: 1,
		}
	}
	_ = traceOp{}
	return specs, nil
}

// traceStream replays one client's parsed ops against the live tree.
type traceStream struct {
	tree *namespace.Tree
	ops  []parsedOp
	pos  int
}

// ReadsTree marks the stream as tree-reading (see TreeReader): replay
// resolves recorded paths against the live namespace, so ops after a
// create must not be drawn until that create has been applied.
func (s *traceStream) ReadsTree() bool { return true }

func (s *traceStream) Draw(op *Op) bool {
	for s.pos < len(s.ops) {
		p := &s.ops[s.pos]
		s.pos++
		if p.kind == OpCreate {
			parent, err := s.tree.Lookup(parentPath(p.path))
			if err != nil {
				continue // parent vanished; skip the op
			}
			op.set(OpCreate, nil, parent, basename(p.path), p.data, 0)
			return true
		}
		target, err := s.tree.Lookup(p.path)
		if err != nil {
			continue // path not materialized; skip
		}
		var data int64
		if p.kind == OpOpen {
			data = p.data
			if data == 0 {
				data = target.Size
			}
		}
		op.set(p.kind, target, nil, "", 0, data)
		return true
	}
	return false
}

func (s *traceStream) Next() (op Op, ok bool) { ok = s.Draw(&op); return }

// WriteTrace serializes client op streams into the trace format. It
// CONSUMES the streams, so export from freshly built specs.
func WriteTrace(w io.Writer, specs []ClientSpec) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# lunule-sim trace: client op path [bytes]"); err != nil {
		return err
	}
	// Interleave round-robin to preserve the concurrent arrival order.
	streams := make([]Stream, len(specs))
	for i, sp := range specs {
		streams[i] = sp.Stream
	}
	live := len(streams)
	for live > 0 {
		live = 0
		for c, s := range streams {
			op, ok := s.Next()
			if !ok {
				continue
			}
			live++
			var path string
			switch op.Kind {
			case OpCreate:
				path = op.Parent.Path() + "/" + op.Name
			default:
				path = op.Target.Path()
			}
			if op.DataSize > 0 || op.Size > 0 {
				sz := op.DataSize
				if op.Kind == OpCreate {
					sz = op.Size
				}
				if _, err := fmt.Fprintf(bw, "%d %s %s %d\n", c, op.Kind, path, sz); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(bw, "%d %s %s\n", c, op.Kind, path); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func parentPath(path string) string {
	idx := strings.LastIndexByte(path, '/')
	if idx <= 0 {
		return "/"
	}
	return path[:idx]
}

func basename(path string) string {
	idx := strings.LastIndexByte(path, '/')
	return path[idx+1:]
}
