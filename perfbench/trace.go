package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/storage"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span
// whose time this one is part of (-1 for none), and Op is the
// closed-loop operation it belongs to (-1 for none). A detached span
// ran on another goroutine during the timed phase while the load
// goroutine was not waiting for it: it has no parent and no op, and
// its time is its own.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Detached bool   `json:"detached,omitempty"`
}

// layer is the span name's prefix: "storage.write" is in "storage".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory. The load goroutine (the one that
// made the tracer) opens and closes nested spans with begin/end;
// forwarding wrappers record leaf spans with leaf, from any goroutine.
// A leaf is part of the load goroutine's innermost open span when it
// ran on the load goroutine itself, or when that span waits for
// background work (beginWait: Sync blocks until the flush workers and
// replica serve loops are done). Any other leaf from a background
// goroutine, such as a flush of an earlier checkpoint that overlaps
// the next operation, is detached. A nil or disabled tracer records
// nothing.
type tracer struct {
	on    bool
	epoch time.Time
	loadT int // the load goroutine's OS thread, which it keeps to itself

	mu    sync.Mutex
	spans []span

	cur     atomic.Int32 // innermost span open on the load goroutine, -1 for none
	waiting atomic.Bool  // cur waits for background work
	op      atomic.Int64 // current closed-loop operation
}

// newTracer makes a tracer whose load goroutine is the caller. An
// enabled tracer locks the caller to its OS thread for the rest of its
// life (a segment runs in a process of its own), so a leaf can tell
// whether it runs on the load goroutine by its thread alone.
func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		runtime.LockOSThread()
		t.loadT = threadID()
	}
	t.cur.Store(-1)
	t.op.Store(-1)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// setOp marks the start of closed-loop operation n.
func (t *tracer) setOp(n int64) {
	if t.enabled() {
		t.op.Store(n)
	}
}

// begin opens a nested span on the load goroutine.
func (t *tracer) begin(name string) int32 { return t.open(name, false) }

// beginWait opens a nested span on the load goroutine for a call that
// blocks until background work is done: leaves recorded on other
// goroutines while it is innermost are part of it.
func (t *tracer) beginWait(name string) int32 { return t.open(name, true) }

func (t *tracer) open(name string, wait bool) int32 {
	if !t.enabled() {
		return -1
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: t.cur.Load(), Op: t.op.Load(), Name: name, Start: start, End: -1})
	t.mu.Unlock()
	t.cur.Store(id)
	t.waiting.Store(wait)
	return id
}

// end closes a span opened by begin or beginWait. Only begin spans
// have children on the load goroutine, so the parent it reopens does
// not wait.
func (t *tracer) end(id int32) {
	if !t.enabled() || id < 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	parent := t.spans[id].Parent
	t.mu.Unlock()
	t.waiting.Store(false)
	t.cur.Store(parent)
}

// leaf records a completed span that started at start, from any
// goroutine.
func (t *tracer) leaf(name string, start time.Time) {
	if !t.enabled() {
		return
	}
	s := span{Parent: t.cur.Load(), Op: t.op.Load(), Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()}
	if s.Op >= 0 && !t.waiting.Load() && threadID() != t.loadT {
		s.Parent, s.Op, s.Detached = -1, -1, true
	}
	t.mu.Lock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval covered by its children (children are clipped to the
// parent and overlapping children are merged first). A detached span
// has no parent, so its whole duration is its layer's.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.layer()] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, iv := range c {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// spanTotals sums span durations by span name.
func spanTotals(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// writeSpans writes the spans to path as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDevice forwards every call to the device handed to
// objstore.Create, recording a storage span around each I/O. It also
// forwards the optional Redirector, ResidentReporter and Trimmer
// capabilities, answering for them exactly as the wrapped device
// would, so the object store cannot tell the two apart.
type tracedDevice struct {
	inner storage.Device
	tr    *tracer
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	t0 := time.Now()
	c, err := d.inner.ReadAt(p, off)
	d.tr.leaf("storage.read", t0)
	return c, err
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	t0 := time.Now()
	c, err := d.inner.WriteAt(p, off)
	d.tr.leaf("storage.write", t0)
	return c, err
}

func (d *tracedDevice) ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error) {
	t0 := time.Now()
	c, err := d.inner.ReadBatch(bufs, offs)
	d.tr.leaf("storage.read", t0)
	return c, err
}

func (d *tracedDevice) Sync() (time.Duration, error) {
	t0 := time.Now()
	c, err := d.inner.Sync()
	d.tr.leaf("storage.sync", t0)
	return c, err
}

func (d *tracedDevice) Params() storage.DeviceParams { return d.inner.Params() }
func (d *tracedDevice) Stats() storage.DeviceStats   { return d.inner.Stats() }

// Redirect implements storage.Redirector: the redirected view is
// traced too. A device that cannot redirect is shared as-is, exactly
// as storage.Redirect would.
func (d *tracedDevice) Redirect(c *storage.Clock) storage.Device {
	return &tracedDevice{inner: storage.Redirect(d.inner, c), tr: d.tr}
}

// Resident implements storage.ResidentReporter (-1 when the wrapped
// device cannot report residency, as storage.ResidentBytes says).
func (d *tracedDevice) Resident() int64 { return storage.ResidentBytes(d.inner) }

// Discard implements storage.Trimmer (a no-op when the wrapped device
// cannot TRIM, as storage.DiscardRange says).
func (d *tracedDevice) Discard(off, length int64) { storage.DiscardRange(d.inner, off, length) }

// tracedConn forwards a replica link end, recording a netback span
// around each write (reads block on the peer and are not timed).
type tracedConn struct {
	inner io.ReadWriter
	tr    *tracer
}

func (c *tracedConn) Read(p []byte) (int, error) { return c.inner.Read(p) }

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.inner.Write(p)
	c.tr.leaf("netback.link_write", t0)
	return n, err
}
