// Package trace is the observation vocabulary of the cycle-level core: one
// stream of typed microarchitectural events (load executions, squashes,
// WRPKRU retirements, transient PKRU-upgrade windows, loads held to the
// window head, suppressed store-to-load forwarding, deferred TLB fills) and
// one per-retire stage record, with the sinks and renderers that read them —
// a bounded ring with a JSONL serializer, a per-address load-latency map, a
// Konata/gem5-O3 exporter and a text pipeline diagram.
//
// The core emits each occurrence once, into Machine.Events, a Sink. A nil
// sink disables the whole layer, so the hooks cost nothing when observation
// is off. The ring is bounded so tracing a 500M-cycle run cannot exhaust
// memory: once full, the oldest events are overwritten and counted as
// dropped.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Kind names an event type.
type Kind string

// The event kinds. Each fires at one point of the core; N carries the kind's
// number and Note its cause, where the kind has one. Window-closing kinds
// (commit, squash, replay, fill) carry the window's duration in cycles.
const (
	// KindLoad is a load executing, from memory or forwarded from an older
	// store, at execute or at its head replay, on the wrong path too;
	// Pkey = the loaded page's key, N = the latency, Addr = the virtual
	// address. It is the flush+reload probes' timer.
	KindLoad Kind = "load"
	// KindSquash is a pipeline squash; N = flushed active-list entries,
	// Note = the cause (mispredict, memorder, fault).
	KindSquash Kind = "squash"
	// KindWrpkruRetire is a WRPKRU reaching retirement; N = the new
	// committed PKRU value.
	KindWrpkruRetire Kind = "wrpkru_retire"
	// KindUpgradeOpen is an executed WRPKRU transiently granting Pkey a
	// permission the committed ARF denies, one event per upgraded key.
	KindUpgradeOpen Kind = "upgrade_open"
	// KindUpgradeCommit closes an upgrade window because its WRPKRU
	// retired: the grant became architectural. N = execute→retire cycles.
	KindUpgradeCommit Kind = "upgrade_commit"
	// KindUpgradeSquash closes an upgrade window because its WRPKRU was
	// squashed: the grant never became architectural. N = cycles open.
	KindUpgradeSquash Kind = "upgrade_squash"
	// KindLoadStall is a load held to the window head; Note = the gate
	// (load_check, tlb_defer, forward_blocked, partial_forward).
	KindLoadStall Kind = "load_stall"
	// KindLoadReplay is a held load re-executing at the head, after its
	// translation; N = stall→replay cycles.
	KindLoadReplay Kind = "load_replay"
	// KindStoreReplay is a suspect store that withheld its address
	// (Config.StallSuspectStores) resolving it at the head, after its
	// translation; N = execute→replay cycles.
	KindStoreReplay Kind = "store_replay"
	// KindNoForward is a store whose store-to-load forwarding was
	// suppressed; Note = the cause (store_check, tlb_miss).
	KindNoForward Kind = "no_forward"
	// KindNoForwardCommit is a no-forward store reaching commit, where its
	// precise permission re-check runs; N = execute→commit cycles.
	KindNoForwardCommit Kind = "no_forward_commit"
	// KindTLBDefer is a memory access whose TLB fill was deferred to
	// retirement (SpecMPK §V-C5); Note = load or store.
	KindTLBDefer Kind = "tlb_defer"
	// KindTLBFill is a deferred TLB fill performed at the head or at
	// commit; N = defer→fill cycles.
	KindTLBFill Kind = "tlb_fill"
)

// Key is an event's protection key, held one up so that the zero value means
// none: a keyless event, or one whose key is not yet known because its
// translation was deferred. It marshals as the key itself and is omitted
// when none, so such an event never reads as key 0.
type Key uint8

// NoKey marks an event without a known protection key.
const NoKey Key = 0

// KeyOf returns the Key of protection key k.
func KeyOf(k int) Key { return Key(k + 1) }

// Value returns the protection key and whether there is one.
func (k Key) Value() (int, bool) { return int(k) - 1, k != NoKey }

// MarshalJSON writes the protection key itself.
func (k Key) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, int64(k)-1, 10), nil
}

// UnmarshalJSON reads a protection key written by MarshalJSON.
func (k *Key) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseUint(string(b), 10, 8)
	if err != nil || n >= 255 {
		return fmt.Errorf("trace: bad pkey %s", b)
	}
	*k = KeyOf(int(n))
	return nil
}

// Event is one microarchitectural occurrence.
type Event struct {
	Cycle uint64 `json:"cycle"`
	Kind  Kind   `json:"kind"`
	Seq   uint64 `json:"seq,omitempty"`
	PC    uint64 `json:"pc,omitempty"`
	Pkey  Key    `json:"pkey,omitempty"`
	N     uint64 `json:"n,omitempty"`
	Note  string `json:"note,omitempty"`
	Addr  uint64 `json:"addr,omitempty"`
}

// Sink receives the core's event stream. Ring keeps it for export, Loads
// keeps load latencies by address and profile.Ledger tallies it per
// protection key; Fanout feeds several.
type Sink interface {
	Emit(Event)
}

// Fanout is a Sink that hands each event to every sink, in order.
type Fanout []Sink

// Emit implements Sink.
func (f Fanout) Emit(e Event) {
	for _, s := range f {
		s.Emit(e)
	}
}

// Loads is a Sink that keeps every executed load's latency by virtual
// address, in execution order — what a flush+reload probe reads.
type Loads map[uint64][]uint64

// Emit implements Sink.
func (l Loads) Emit(e Event) {
	if e.Kind == KindLoad {
		l[e.Addr] = append(l[e.Addr], e.N)
	}
}

// Buffer is a bounded buffer that keeps the newest values: Push overwrites
// the oldest when full, counting the overwritten ones as dropped. Its storage
// grows with what it holds, up to the capacity, so a large bound costs
// nothing until it is used. The event Ring and otrace's span recorder are
// built on it.
type Buffer[T any] struct {
	buf      []T
	capacity int
	start    int // index of the oldest value once full
	dropped  uint64
}

// NewBuffer builds a buffer holding up to capacity values.
func NewBuffer[T any](capacity int) Buffer[T] {
	if capacity <= 0 {
		panic("trace: buffer capacity must be positive")
	}
	return Buffer[T]{capacity: capacity}
}

// Push appends v, evicting the oldest value when full.
func (b *Buffer[T]) Push(v T) {
	if len(b.buf) == b.capacity {
		b.buf[b.start] = v
		b.start = (b.start + 1) % len(b.buf)
		b.dropped++
		return
	}
	if len(b.buf) == cap(b.buf) {
		// Double the storage, never past the capacity.
		b.buf = append(make([]T, 0, min(max(2*len(b.buf), 16), b.capacity)), b.buf...)
	}
	b.buf = append(b.buf, v)
}

// Len returns the number of buffered values.
func (b *Buffer[T]) Len() int { return len(b.buf) }

// Dropped returns how many values were overwritten.
func (b *Buffer[T]) Dropped() uint64 { return b.dropped }

// All returns a copy of the buffered values, oldest first.
func (b *Buffer[T]) All() []T {
	out := make([]T, 0, len(b.buf))
	return append(append(out, b.buf[b.start:]...), b.buf[:b.start]...)
}

// Ring is a bounded event buffer: Emit overwrites the oldest event when
// full, counting the overwritten ones as dropped.
type Ring struct{ Buffer[Event] }

// NewRing builds a ring holding up to capacity events.
func NewRing(capacity int) *Ring { return &Ring{NewBuffer[Event](capacity)} }

// Emit appends an event, evicting the oldest when full.
func (r *Ring) Emit(e Event) { r.Push(e) }

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event { return r.All() }

// CountByKind tallies the buffered events per kind.
func (r *Ring) CountByKind() map[Kind]uint64 {
	out := make(map[Kind]uint64)
	for _, e := range r.All() {
		out[e.Kind]++
	}
	return out
}

// WriteJSONL writes one JSON object per line per event.
func WriteJSONL(w io.Writer, events []Event) error {
	return WriteJSONLRows(w, events)
}

// WriteJSONLRows writes any row slice as JSON Lines — the export path the
// span recorder shares with the event trace.
func WriteJSONLRows[T any](w io.Writer, rows []T) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}
