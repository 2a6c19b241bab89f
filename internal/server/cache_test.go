package server

import "testing"

// TestCacheStoreStates drives the store through its absent/pending/resident
// state machine one operation at a time. Producers are *int: distinct
// allocations, so producer identity is pointer identity.
func TestCacheStoreStates(t *testing.T) {
	type step struct {
		op  string // "lookup", "settle" or "peek"
		key string
		// slot names a producer: an installing lookup records its new
		// producer there, a joining lookup must return the one there, and
		// settle settles as the one there.
		slot int
		miss bool        // lookup: force the non-resident path
		val  string      // settle: the value; resident lookup/peek: the value expected
		keep bool        // settle
		want lookupState // lookup
		ok   bool        // settle/peek: the expected report
	}
	fill := func(key string, slot int, val string) []step {
		return []step{
			{op: "lookup", key: key, slot: slot, want: installed},
			{op: "settle", key: key, slot: slot, val: val, keep: true, ok: true},
		}
	}
	cat := func(parts ...[]step) []step {
		var out []step
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name  string
		max   int
		steps []step
		// Final counters and resident count.
		hits, misses, evictions, peeks, peekHits uint64
		len                                      int
	}{
		{
			name: "absent then pending then resident",
			max:  4,
			steps: []step{
				{op: "lookup", key: "a", slot: 0, want: installed},
				{op: "lookup", key: "a", slot: 0, want: joined},
				{op: "peek", key: "a", ok: false},
				{op: "settle", key: "a", slot: 0, val: "A", keep: true, ok: true},
				{op: "lookup", key: "a", val: "A", want: resident},
			},
			hits: 1, misses: 2, peeks: 1, len: 1,
		},
		{
			name: "settle without keep leaves the key absent",
			max:  4,
			steps: []step{
				{op: "lookup", key: "a", slot: 0, want: installed},
				{op: "settle", key: "a", slot: 0, val: "A", keep: false, ok: true},
				{op: "peek", key: "a", ok: false},
				{op: "lookup", key: "a", slot: 1, want: installed},
			},
			misses: 2, peeks: 1, len: 0,
		},
		{
			name: "second or stale settle is a no-op",
			max:  4,
			steps: cat(fill("a", 0, "A"), []step{
				{op: "settle", key: "a", slot: 0, val: "X", keep: true, ok: false},
				{op: "lookup", key: "a", val: "A", want: resident},
				{op: "lookup", key: "b", slot: 1, want: installed},
				{op: "settle", key: "b", slot: 1, keep: false, ok: true},
				{op: "lookup", key: "b", slot: 2, want: installed},
				{op: "settle", key: "b", slot: 1, val: "X", keep: true, ok: false},
				{op: "lookup", key: "b", slot: 2, want: joined},
				{op: "settle", key: "b", slot: 2, val: "B", keep: true, ok: true},
				{op: "lookup", key: "b", val: "B", want: resident},
			}),
			hits: 2, misses: 4, len: 2,
		},
		{
			name: "bound evicts least recently used first",
			max:  2,
			steps: cat(fill("a", 0, "A"), fill("b", 1, "B"), []step{
				{op: "lookup", key: "a", val: "A", want: resident},
			}, fill("c", 2, "C"), []step{
				{op: "lookup", key: "b", slot: 3, want: installed},
				{op: "lookup", key: "a", val: "A", want: resident},
				{op: "lookup", key: "c", val: "C", want: resident},
			}),
			hits: 3, misses: 4, evictions: 1, len: 2,
		},
		{
			name: "peek refreshes recency without counting lookups",
			max:  2,
			steps: cat(fill("a", 0, "A"), fill("b", 1, "B"), []step{
				{op: "peek", key: "a", val: "A", ok: true},
				{op: "peek", key: "z", ok: false},
			}, fill("c", 2, "C"), []step{
				{op: "peek", key: "b", ok: false},
				{op: "peek", key: "a", val: "A", ok: true},
			}),
			misses: 3, evictions: 1, peeks: 4, peekHits: 2, len: 2,
		},
		{
			name: "forced miss drops the resident value",
			max:  4,
			steps: cat(fill("a", 0, "A"), []step{
				{op: "lookup", key: "a", slot: 1, miss: true, want: installed},
				{op: "peek", key: "a", ok: false},
				{op: "settle", key: "a", slot: 1, val: "A", keep: true, ok: true},
				{op: "lookup", key: "a", val: "A", want: resident},
			}),
			hits: 1, misses: 2, peeks: 1, len: 1,
		},
		{
			name: "a store that retains nothing still single-flights",
			max:  -1,
			steps: []step{
				{op: "lookup", key: "a", slot: 0, want: installed},
				{op: "lookup", key: "a", slot: 0, want: joined},
				{op: "settle", key: "a", slot: 0, val: "A", keep: true, ok: true},
				{op: "lookup", key: "a", slot: 1, want: installed},
			},
			misses: 3, len: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newStore[string, *int](tc.max)
			var slots [4]*int
			for i, s := range tc.steps {
				switch s.op {
				case "lookup":
					v, p, st := c.lookup(s.key, s.miss, func() *int { return new(int) })
					if st != s.want {
						t.Fatalf("step %d: lookup %q state %d, want %d", i, s.key, st, s.want)
					}
					switch st {
					case resident:
						if v != s.val {
							t.Fatalf("step %d: lookup %q = %q, want %q", i, s.key, v, s.val)
						}
					case joined:
						if p != slots[s.slot] {
							t.Fatalf("step %d: join on %q returned a producer other than the owner", i, s.key)
						}
					case installed:
						for j, q := range slots {
							if q == p {
								t.Fatalf("step %d: install on %q reused slot %d's producer", i, s.key, j)
							}
						}
						slots[s.slot] = p
					}
				case "settle":
					if got := c.settle(s.key, slots[s.slot], s.val, s.keep); got != s.ok {
						t.Fatalf("step %d: settle %q by slot %d = %v, want %v", i, s.key, s.slot, got, s.ok)
					}
				case "peek":
					if v, ok := c.peek(s.key); ok != s.ok || v != s.val {
						t.Fatalf("step %d: peek %q = %q,%v, want %q,%v", i, s.key, v, ok, s.val, s.ok)
					}
				}
			}
			for _, ctr := range []struct {
				name      string
				got, want uint64
			}{
				{"hits", c.hits.Load(), tc.hits},
				{"misses", c.misses.Load(), tc.misses},
				{"evictions", c.evictions.Load(), tc.evictions},
				{"peeks", c.peeks.Load(), tc.peeks},
				{"peekHits", c.peekHits.Load(), tc.peekHits},
			} {
				if ctr.got != ctr.want {
					t.Errorf("%s = %d, want %d", ctr.name, ctr.got, ctr.want)
				}
			}
			if n := c.len(); n != tc.len {
				t.Errorf("len = %d, want %d", n, tc.len)
			}
		})
	}
}
