package memo

import (
	"fmt"
	"sync"
	"testing"
)

func intHash(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

func TestGetPut(t *testing.T) {
	c := New[int, string](64, intHash)
	if _, ok := c.Get(1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(1, "one")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("got %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFirstWriteWins(t *testing.T) {
	c := New[int, string](64, intHash)
	c.Put(7, "first")
	c.Put(7, "second")
	if v, _ := c.Peek(7); v != "first" {
		t.Fatalf("duplicate put replaced value: %q", v)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate put grew the cache: %+v", st)
	}
}

// TestBound verifies FIFO eviction holds the entry count near the
// requested bound (rounded up to the shard count) and that the most
// recent keys survive within each shard.
func TestBound(t *testing.T) {
	const max = 32
	c := New[int, int](max, intHash)
	for i := 0; i < 10*max; i++ {
		c.Put(i, i)
	}
	st := c.Stats()
	perShard := (max + 15) / 16
	if st.Entries > perShard*16 {
		t.Fatalf("cache exceeded bound: %+v", st)
	}
	// The very last key inserted must still be present.
	if _, ok := c.Peek(10*max - 1); !ok {
		t.Fatal("most recent key was evicted")
	}
}

func TestNilCacheDisabled(t *testing.T) {
	var c *Cache[int, int]
	if c != New[int, int](0, intHash) {
		t.Fatal("New with max<1 should return nil")
	}
	c.Put(1, 1) // must not panic
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.Note(3, 4)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestNote(t *testing.T) {
	c := New[int, int](16, intHash)
	c.Note(5, 3)
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConcurrent hammers one cache from many goroutines; run with
// -race to check the locking.
func TestConcurrent(t *testing.T) {
	c := New[int, string](256, intHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := i % 100
				if v, ok := c.Get(k); ok {
					if want := fmt.Sprint(k); v != want {
						t.Errorf("key %d: got %q want %q", k, v, want)
					}
					continue
				}
				c.Put(k, fmt.Sprint(k))
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses: %+v", st)
	}
}

// TestEntriesBound fills caches of assorted sizes far past their bound:
// the entry count never exceeds ceil(max/16)·16, every insert either
// took a free way or evicted, and the table is exactly full.
func TestEntriesBound(t *testing.T) {
	for _, max := range []int{1, 7, 16, 17, 100, 4096, 8192} {
		c := New[int, int](max, intHash)
		bound := (max + shardCount - 1) / shardCount * shardCount
		inserts := 4*bound + 64
		for i := 0; i < inserts; i++ {
			c.Put(i, i)
		}
		st := c.Stats()
		if st.Entries > bound {
			t.Errorf("max %d: %d entries, bound %d", max, st.Entries, bound)
		}
		if int64(st.Entries)+st.Evictions != int64(inserts) {
			t.Errorf("max %d: %d entries + %d evictions != %d inserts", max, st.Entries, st.Evictions, inserts)
		}
	}
}

// sameSet returns n distinct keys that c places in one set.
func sameSet(c *Cache[int, int], n int) []int {
	sh0, s0 := c.locate(0)
	keys := []int{0}
	for k := 1; len(keys) < n; k++ {
		if sh, s := c.locate(k); sh == sh0 && s == s0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSetEvictsOldest overfills one 8-way set: each insert past the
// eighth overwrites the set's oldest entry and keeps the newest, and
// re-putting a resident key neither replaces it nor moves the cursor.
func TestSetEvictsOldest(t *testing.T) {
	c := New[int, int](maxWays*shardCount, intHash) // one 8-way set per shard
	keys := sameSet(c, maxWays+3)
	for _, k := range keys[:maxWays+2] {
		c.Put(k, k)
	}
	c.Put(keys[2], -1)
	if v, _ := c.Peek(keys[2]); v != keys[2] {
		t.Errorf("duplicate put replaced value: %d", v)
	}
	c.Put(keys[maxWays+2], keys[maxWays+2])
	for i, k := range keys {
		_, ok := c.Peek(k)
		if evicted := i < 3; ok == evicted {
			t.Errorf("key %d (insert %d): present=%v", k, i, ok)
		}
	}
	if st := c.Stats(); st.Entries != maxWays || st.Evictions != 3 {
		t.Errorf("stats %+v, want %d entries and 3 evictions", st, maxWays)
	}
}

func TestPeekNeverCounts(t *testing.T) {
	c := New[int, int](64, intHash)
	c.Peek(1)
	c.Put(1, 1)
	c.Peek(1)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted: %+v", st)
	}
}

// TestStatsSums checks Stats adds every shard's Get counters to the
// batched Note counts.
func TestStatsSums(t *testing.T) {
	c := New[int, int](1024, intHash)
	for i := 0; i < 200; i++ {
		c.Put(i, i)
	}
	for i := 0; i < 300; i++ { // 200 hits, 100 misses across the shards
		c.Get(i)
	}
	c.Note(7, 11)
	st := c.Stats()
	if st.Hits != 207 || st.Misses != 111 || st.Entries != 200 {
		t.Fatalf("stats %+v", st)
	}
}

// TestShardSpread feeds keys whose raw hashes differ only in their
// top byte: the finalizer must still reach every shard, so none of
// them evicts while the table has room to spare.
func TestShardSpread(t *testing.T) {
	c := New[uint64, int](4096, func(k uint64) uint64 { return k << 56 })
	for k := uint64(0); k < 256; k++ {
		c.Put(k, 0)
	}
	var used int
	for i := range c.shards {
		if c.shards[i].entries > 0 {
			used++
		}
	}
	if used != shardCount {
		t.Errorf("keys reached %d of %d shards", used, shardCount)
	}
	if st := c.Stats(); st.Entries != 256 || st.Evictions != 0 {
		t.Errorf("stats %+v, want all 256 keys resident", st)
	}
}

// TestConcurrentEvicting hammers a small cache with many more keys
// than it holds, so readers race against in-place overwrites; run with
// -race to check the locking. A hit must always return its own key's
// value.
func TestConcurrentEvicting(t *testing.T) {
	c := New[int, [4]int](32, intHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + g) % 500
				if v, ok := c.Get(k); ok {
					if v != [4]int{k, k, k, k} {
						t.Errorf("key %d: got %v", k, v)
					}
					continue
				}
				c.Put(k, [4]int{k, k, k, k})
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 32 || st.Evictions == 0 {
		t.Fatalf("stats %+v", st)
	}
}
