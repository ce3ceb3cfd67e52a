package fleet

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// order is the ring walk from key's position as replica IDs: the owner,
// then each successive fallback.
func order(r *Ring, key string) []string {
	var ids []string
	for _, o := range r.walk(hash64(key), nil) {
		ids = append(ids, r.ids[o])
	}
	return ids
}

// ringKeys generates n routing keys shaped like real ones (model|client).
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("AlexNet|client-%d", i)
	}
	return keys
}

func ownerShares(r *Ring, keys []string) map[string]float64 {
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	shares := map[string]float64{}
	for id, c := range counts {
		shares[id] = float64(c) / float64(len(keys))
	}
	return shares
}

func TestRingEqualWeightsBalance(t *testing.T) {
	r := NewRing([]RingEntry{
		{ID: "a", Weight: 100}, {ID: "b", Weight: 100}, {ID: "c", Weight: 100},
	})
	shares := ownerShares(r, ringKeys(30000))
	for id, s := range shares {
		if s < 0.25 || s > 0.42 {
			t.Errorf("replica %s owns %.1f%% of keys; want ~33%%", id, 100*s)
		}
	}
}

func TestRingWeightedProportionality(t *testing.T) {
	// 4:2:1 capacity should translate into a matching ownership gradient.
	r := NewRing([]RingEntry{
		{ID: "big", Weight: 400}, {ID: "mid", Weight: 200}, {ID: "small", Weight: 100},
	})
	shares := ownerShares(r, ringKeys(30000))
	if !(shares["big"] > shares["mid"] && shares["mid"] > shares["small"]) {
		t.Fatalf("shares not ordered by weight: %v", shares)
	}
	if ratio := shares["big"] / shares["small"]; ratio < 2 {
		t.Errorf("big/small ownership ratio %.2f; want ≥ 2 for 4:1 weights", ratio)
	}
}

func TestRingJoinMovesOnlyToJoiner(t *testing.T) {
	before := NewRing([]RingEntry{
		{ID: "a", Weight: 100}, {ID: "b", Weight: 100}, {ID: "c", Weight: 100},
	})
	after := NewRing([]RingEntry{
		{ID: "a", Weight: 100}, {ID: "b", Weight: 100}, {ID: "c", Weight: 100},
		{ID: "d", Weight: 100},
	})
	keys := ringKeys(8000)
	moved := 0
	for _, k := range keys {
		was, is := before.Owner(k), after.Owner(k)
		if was == is {
			continue
		}
		moved++
		if is != "d" {
			t.Fatalf("key %s moved %s→%s on join of d; only moves to d are consistent", k, was, is)
		}
	}
	if moved == 0 {
		t.Fatal("joining replica d captured no keys")
	}
	if frac := float64(moved) / float64(len(keys)); frac > 0.45 {
		t.Errorf("join moved %.1f%% of keys; want ≈25%% (equal weights)", 100*frac)
	}
}

func TestRingLeaveMovesOnlyOrphans(t *testing.T) {
	before := NewRing([]RingEntry{
		{ID: "a", Weight: 100}, {ID: "b", Weight: 100}, {ID: "c", Weight: 100},
	})
	after := NewRing([]RingEntry{
		{ID: "a", Weight: 100}, {ID: "b", Weight: 100},
	})
	for _, k := range ringKeys(8000) {
		was, is := before.Owner(k), after.Owner(k)
		if was != "c" && was != is {
			t.Fatalf("key %s moved %s→%s though its owner never left", k, was, is)
		}
		if was == "c" && is == "c" {
			t.Fatalf("key %s still owned by departed replica", k)
		}
	}
}

// TestRingOrderDistinct: a walk lists every replica once, owner first —
// on a small ring and on one wider than a bitset word.
func TestRingOrderDistinct(t *testing.T) {
	small := NewRing([]RingEntry{
		{ID: "a", Weight: 300}, {ID: "b", Weight: 200}, {ID: "c", Weight: 100},
	})
	var entries []RingEntry
	for i := 0; i < 70; i++ {
		entries = append(entries, RingEntry{ID: fmt.Sprintf("r%d", i), Weight: float64(1 + i%3)})
	}
	for _, r := range []*Ring{small, NewRing(entries)} {
		for _, k := range ringKeys(200) {
			full := order(r, k)
			if len(full) != r.Size() {
				t.Fatalf("order(%s) = %v; want all %d replicas", k, full, r.Size())
			}
			seen := map[string]bool{}
			for _, id := range full {
				if seen[id] {
					t.Fatalf("order(%s) repeats %s: %v", k, id, full)
				}
				seen[id] = true
			}
			if full[0] != r.Owner(k) {
				t.Fatalf("order(%s)[0] = %s but Owner = %s", k, full[0], r.Owner(k))
			}
		}
	}
}

// TestHash64MatchesFNV pins the routing hash to hash/fnv's FNV-1a plus
// the splitmix64 finalizer — the committed soak's routing depends on
// every bit — and the streamed form Fleet.candidates hashes a key with to
// the hash of the concatenated string.
func TestHash64MatchesFNV(t *testing.T) {
	for _, parts := range [][3]string{
		{"", "", ""}, {"AlexNet", "|", "client-7"}, {"VGGNet", "|", ""},
		{"a", "#", "159"}, {"\xff\x00", "|", "日本"},
	} {
		s := parts[0] + parts[1] + parts[2]
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := hash64(s), mix64(h.Sum64()); got != want {
			t.Errorf("hash64(%q) = %#x, want %#x", s, got, want)
		}
		streamed := mix64(fnv1a(fnv1a(fnv1a(fnvOffset64, parts[0]), parts[1]), parts[2]))
		if streamed != hash64(s) {
			t.Errorf("streamed hash of %q = %#x, want %#x", parts, streamed, hash64(s))
		}
	}
}

// TestRingFallbackOrderStableUnderJoin pins the routing-stability
// property walk's doc comment promises: when an unrelated replica joins,
// a key's fallback sequence over the old replicas keeps its relative
// order — the joiner only splices in.
func TestRingFallbackOrderStableUnderJoin(t *testing.T) {
	entries := []RingEntry{
		{ID: "a", Weight: 100}, {ID: "b", Weight: 100},
		{ID: "c", Weight: 100}, {ID: "d", Weight: 100},
	}
	before := NewRing(entries)
	after := NewRing(append(append([]RingEntry(nil), entries...), RingEntry{ID: "e", Weight: 100}))
	for _, k := range ringKeys(2000) {
		want := order(before, k)
		got := make([]string, 0, len(want))
		for _, id := range order(after, k) {
			if id != "e" {
				got = append(got, id)
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("key %s fallback order reshuffled on unrelated join: %v → %v", k, want, got)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil)
	if empty.Owner("k") != "" || order(empty, "k") != nil || empty.Size() != 0 {
		t.Error("empty ring should answer no owners")
	}
	// Non-positive weights take the mean: a failed capacity probe must not
	// erase the replica from routing.
	r := NewRing([]RingEntry{{ID: "a", Weight: 500}, {ID: "bad", Weight: 0}})
	shares := ownerShares(r, ringKeys(5000))
	if shares["bad"] == 0 {
		t.Error("zero-weight replica owns no keys; want mean weight fallback")
	}
}
