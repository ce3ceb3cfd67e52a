package fleet

import (
	"slices"
	"sort"
	"strconv"
)

// baseVNodes is how many virtual nodes a replica of mean capacity gets.
// More vnodes tighten the distribution skew at the cost of a larger (still
// tiny) sorted ring; lookups stay one binary search either way.
const baseVNodes = 160

// minVNodes floors a very small replica's vnode count so it still owns
// arcs of the ring.
const minVNodes = 16

// RingEntry is one replica's position material: a stable identity and a
// weight proportional to its predicted capacity (Eq 12 requests/second).
type RingEntry struct {
	ID     string
	Weight float64
}

// Ring is a weighted consistent-hash ring. Each replica owns a number of
// virtual nodes proportional to its weight, so a TitanX-class replica
// absorbs correspondingly more key space than a TX1. The ring itself is
// immutable; membership changes rebuild it (cheap — a few thousand
// hashes), and consistent hashing guarantees only the keys owned by the
// joining/leaving replica move.
type Ring struct {
	ids    []string
	hashes []uint64 // sorted vnode positions
	owner  []int    // owner[i] indexes ids for hashes[i]
}

// NewRing builds a ring from the entries, in order. Entries with
// non-positive weight get the mean weight (a replica must not vanish from
// the ring just because its capacity probe failed). An empty entry set
// yields an empty ring whose lookups return nil.
func NewRing(entries []RingEntry) *Ring {
	r := &Ring{}
	if len(entries) == 0 {
		return r
	}
	mean := 0.0
	positive := 0
	for _, e := range entries {
		if e.Weight > 0 {
			mean += e.Weight
			positive++
		}
	}
	if positive > 0 {
		mean /= float64(positive)
	} else {
		mean = 1
	}
	for i, e := range entries {
		r.ids = append(r.ids, e.ID)
		w := e.Weight
		if w <= 0 {
			w = mean
		}
		n := int(w/mean*baseVNodes + 0.5)
		if n < minVNodes {
			n = minVNodes
		}
		for v := 0; v < n; v++ {
			r.hashes = append(r.hashes, hash64(e.ID+"#"+strconv.Itoa(v)))
			r.owner = append(r.owner, i)
		}
	}
	sort.Sort(byHash{r})
	return r
}

// byHash sorts the parallel hash/owner slices by vnode position.
type byHash struct{ r *Ring }

func (b byHash) Len() int           { return len(b.r.hashes) }
func (b byHash) Less(i, j int) bool { return b.r.hashes[i] < b.r.hashes[j] }
func (b byHash) Swap(i, j int) {
	b.r.hashes[i], b.r.hashes[j] = b.r.hashes[j], b.r.hashes[i]
	b.r.owner[i], b.r.owner[j] = b.r.owner[j], b.r.owner[i]
}

// Size returns how many replicas the ring holds.
func (r *Ring) Size() int { return len(r.ids) }

// Owner returns the replica owning a key: the first vnode clockwise from
// the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	return r.ids[r.owner[r.search(hash64(key))]]
}

// search returns the index of the first vnode clockwise from position h.
func (r *Ring) search(h uint64) int {
	i, _ := slices.BinarySearch(r.hashes, h)
	return i % len(r.hashes)
}

// walk appends every replica to dst once, as an index into the entries
// the ring was built from, in ring-walk order from position h: the owner
// first, then each successive fallback. The walk order is what gives
// routing its stability — a key's fallback order does not reshuffle when
// an unrelated replica joins.
func (r *Ring) walk(h uint64, dst []int) []int {
	if len(r.hashes) == 0 {
		return dst
	}
	var small [1]uint64
	seen := small[:]
	if len(r.ids) > 64 {
		seen = make([]uint64, (len(r.ids)+63)/64)
	}
	found := 0
	for i, v := r.search(h), 0; v < len(r.hashes) && found < len(r.ids); v++ {
		o := r.owner[i]
		if seen[o/64]&(1<<(o%64)) == 0 {
			seen[o/64] |= 1 << (o % 64)
			dst = append(dst, o)
			found++
		}
		if i++; i == len(r.hashes) {
			i = 0
		}
	}
	return dst
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the running FNV-1a state h, so a key made of
// several strings hashes as their concatenation would.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer. FNV alone clusters near-identical
// strings (vnode names differ only in a numeric suffix), which visibly
// skews ring ownership; the finalizer restores avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash64 is FNV-1a over the string pushed through the splitmix64
// finalizer. Both stages are fixed arithmetic — stable across processes
// and Go versions, which keeps routing (and the committed soak)
// reproducible.
func hash64(s string) uint64 { return mix64(fnv1a(fnvOffset64, s)) }
