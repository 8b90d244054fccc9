package engine

import "testing"

// TestLRUPutRefreshesExistingKey: a second put of a cached key (two
// concurrent misses for one request both store their result) replaces
// the value in place and makes it the most recently used, without
// growing the cache or evicting anything.
func TestLRUPutRefreshesExistingKey(t *testing.T) {
	c := newLRU(2, func(v int) int { return v })
	c.put("a", 1)
	c.put("b", 2)
	c.put("a", 3)
	if c.len() != 2 || c.evicted() != 0 {
		t.Fatalf("after refreshing a: len %d, evicted %d, want 2 and 0", c.len(), c.evicted())
	}
	c.put("c", 4)
	if v, ok := c.get("a"); !ok || v != 3 {
		t.Errorf("get(a) = %d, %v, want the refreshed 3", v, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived; the refreshed a should have outlived it")
	}
	if c.evicted() != 1 {
		t.Errorf("evicted %d, want 1", c.evicted())
	}
}
