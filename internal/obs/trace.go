package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity bounds the registry's embedded event ring. Old
// events are overwritten; Dropped() reports how many.
const DefaultTraceCapacity = 1024

// Event is one structured trace record: a point event (Dur == 0) or a
// span (At = start, Dur = length). Kind is a stable dotted identifier
// ("lsm.flush", "pfs.hedge", "burst.drain.step", ...); Detail is
// free-form human-readable context.
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at"`
	Dur    time.Duration `json:"dur,omitempty"`
	Kind   string        `json:"kind"`
	Detail string        `json:"detail,omitempty"`
}

// Trace is a bounded ring of Events. Emitting never blocks and never
// allocates beyond the ring; when full, the oldest event is dropped.
type Trace struct {
	mu      sync.Mutex
	buf     []Event
	next    int // index of the slot to write next
	full    bool
	seq     uint64
	dropped int64
	now     func() time.Duration
}

// NewTrace builds a ring holding at most capacity events, timestamped
// with the given monotonic clock.
func NewTrace(capacity int, now func() time.Duration) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity), now: now}
}

// Emit records a point event at the current clock reading.
func (t *Trace) Emit(kind, detail string) {
	t.emit(Event{Kind: kind, Detail: detail, At: t.now()})
}

// Emitf records a point event with a formatted detail string.
func (t *Trace) Emitf(kind, format string, args ...any) {
	t.Emit(kind, fmt.Sprintf(format, args...))
}

// EmitSpan records a span that started at start and ends now.
func (t *Trace) EmitSpan(kind, detail string, start time.Duration) {
	end := t.now()
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{Kind: kind, Detail: detail, At: start, Dur: dur})
}

func (t *Trace) emit(ev Event) {
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	if t.full {
		t.dropped++
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Dropped reports how many events were overwritten since the last Reset.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset clears the ring and the dropped count.
func (t *Trace) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = 0
	t.full = false
	t.dropped = 0
}

// Dump writes the buffered events as human-readable lines, oldest
// first, for post-mortem inspection (robustness sweeps dump this on
// failure).
func (t *Trace) Dump(w io.Writer) error {
	events := t.Events()
	dropped := t.Dropped()
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "... %d earlier events dropped ...\n", dropped); err != nil {
			return err
		}
	}
	for _, ev := range events {
		var err error
		if ev.Dur > 0 {
			_, err = fmt.Fprintf(w, "%12s +%-10s %-24s %s\n", ev.At, ev.Dur, ev.Kind, ev.Detail)
		} else {
			_, err = fmt.Fprintf(w, "%12s %11s %-24s %s\n", ev.At, "", ev.Kind, ev.Detail)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
