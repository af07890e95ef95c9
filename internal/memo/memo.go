// Package memo provides a small, bounded, shard-safe cache for
// memoizing pure computations on the sweep hot path.
//
// The cache is a fixed, map-free, set-associative table. New gives
// each of the 16 shards exactly ceil(max/16) slots in one flat array,
// grouped into sets of min(8, ceil(max/16)) ways (a shard's last set
// takes the remainder when the ways do not divide its slots). Nothing
// allocates after New.
//
// The caller's key hash only has to be cheap and collision-light: the
// cache runs it through a finalizer (murmur3's fmix64) whose top bits
// pick the shard and whose low bits pick the set by multiply-shift, so
// raw hashes that differ only in a few high or low bits still spread
// over every shard and set.
//
// A lookup compares at most 8 keys under the shard's plain mutex. An
// insert writes one slot in place: a key already present keeps its
// value (first write wins), a set with a free way takes the next one,
// and a full set overwrites its oldest entry through a per-set FIFO
// cursor. The entry count therefore never exceeds ceil(max/16)·16.
//
// Get counts hits and misses per shard under the lock it already
// holds. Callers that batch their accounting (one tally per system, as
// the KGD cache does) look up with Peek and publish through Note,
// whose counters are atomics; Stats sums both.
package memo

import (
	"sync"
	"sync/atomic"
)

const (
	shardBits  = 4
	shardCount = 1 << shardBits
	maxWays    = 8
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int
	// Evictions counts entries overwritten by an insert into a full
	// set.
	Evictions int64
}

type slot[K comparable, V any] struct {
	key K
	val V
}

// set is one set's bookkeeping: its ways fill in order (n occupied),
// then next names the oldest way, the one the next insert overwrites.
type set struct {
	n, next uint8
}

type shard[K comparable, V any] struct {
	mu    sync.Mutex
	slots []slot[K, V]
	sets  []set

	entries   int
	hits      int64
	misses    int64
	evictions int64
	_         [64]byte // keep neighbouring shards off one cache line
}

// Cache is a bounded, sharded memo table. The zero value is not
// usable; construct with New. A nil *Cache is a valid "disabled"
// cache: Get always misses and Put is a no-op.
type Cache[K comparable, V any] struct {
	shards [shardCount]shard[K, V]
	per    int    // slots per shard
	ways   int    // ways per set; a shard's last set may have fewer
	nsets  uint64 // sets per shard
	hash   func(K) uint64

	// Batched counts published through Note.
	hits   atomic.Int64
	misses atomic.Int64
}

// New builds a cache bounded to max entries rounded up to a multiple
// of the shard count, distributing keys with hash. A max below 1
// returns nil — the disabled cache.
func New[K comparable, V any](max int, hash func(K) uint64) *Cache[K, V] {
	if max < 1 {
		return nil
	}
	per := (max + shardCount - 1) / shardCount
	ways := min(maxWays, per)
	nsets := (per + ways - 1) / ways
	c := &Cache[K, V]{per: per, ways: ways, nsets: uint64(nsets), hash: hash}
	for i := range c.shards {
		c.shards[i].slots = make([]slot[K, V], per)
		c.shards[i].sets = make([]set, nsets)
	}
	return c
}

// fmix64 is murmur3's 64-bit finalizer: every input bit affects every
// output bit, whatever structure the caller's hash leaves in place.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// locate returns k's shard and the index of its set within the shard.
func (c *Cache[K, V]) locate(k K) (*shard[K, V], int) {
	h := fmix64(c.hash(k))
	return &c.shards[h>>(64-shardBits)], int((uint64(uint32(h)) * c.nsets) >> 32)
}

// find returns the slot holding k in set s, or -1. The caller holds
// the shard lock.
func (c *Cache[K, V]) find(sh *shard[K, V], s int, k K) int {
	base := s * c.ways
	for i := base; i < base+int(sh.sets[s].n); i++ {
		if sh.slots[i].key == k {
			return i
		}
	}
	return -1
}

// Get returns the cached value for k, counting a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.lookup(k, true) }

// Peek is Get without touching the hit/miss counters, for callers
// that batch their accounting through Note.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.lookup(k, false) }

func (c *Cache[K, V]) lookup(k K, count bool) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	sh, s := c.locate(k)
	sh.mu.Lock()
	if i := c.find(sh, s, k); i >= 0 {
		v, ok = sh.slots[i].val, true
	}
	if count {
		if ok {
			sh.hits++
		} else {
			sh.misses++
		}
	}
	sh.mu.Unlock()
	return v, ok
}

// Put inserts k→v, overwriting the oldest entry of k's set if the set
// is full. A key already present keeps its original value: concurrent
// fillers compute identical results for identical keys, and
// first-write-wins avoids churning the eviction order.
func (c *Cache[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	sh, s := c.locate(k)
	sh.mu.Lock()
	if c.find(sh, s, k) < 0 {
		st := &sh.sets[s]
		base := s * c.ways
		width := min(c.ways, c.per-base)
		i := base + int(st.n)
		if int(st.n) < width {
			st.n++
			sh.entries++
		} else {
			i = base + int(st.next)
			st.next = uint8((int(st.next) + 1) % width)
			sh.evictions++
		}
		sh.slots[i] = slot[K, V]{key: k, val: v}
	}
	sh.mu.Unlock()
}

// Note publishes batched hit/miss counts recorded outside the cache.
func (c *Cache[K, V]) Note(hits, misses int64) {
	if c == nil {
		return
	}
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// Stats snapshots the counters and current entry count.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += sh.entries
		sh.mu.Unlock()
	}
	return st
}
