package serve

import (
	"sync"

	"circuitstart/internal/sweep"
)

// cacheStats is a snapshot of the point cache's counters.
type cacheStats struct {
	Points int   `json:"points"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// pointCache holds completed grid points keyed by their content hash
// (spec.PointKey): the canonical base spec plus the point's ordered
// (dimension, coordinate) pairs. Because the key hashes the fully
// resolved scenario identity — not the submission — overlapping grids
// from different sweeps share entries, and a resubmission replays its
// cached points byte-identically while computing only the delta.
//
// Eviction is FIFO by insertion order: the cache is a replay buffer,
// not an LRU — determinism of what a hit returns matters more than hit
// rate, and FIFO keeps eviction independent of request order.
type pointCache struct {
	mu     sync.Mutex
	max    int
	points map[string][]sweep.ArmPoint
	order  []string
	hits   int64
	misses int64
}

func newPointCache(max int) *pointCache {
	return &pointCache{max: max, points: make(map[string][]sweep.ArmPoint)}
}

// get returns the cached per-arm rows for key, if present.
func (c *pointCache) get(key string) ([]sweep.ArmPoint, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	arms, ok := c.points[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return arms, ok
}

// put stores one completed point, evicting the oldest entries past max.
func (c *pointCache) put(key string, arms []sweep.ArmPoint) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.points[key]; ok {
		return
	}
	c.points[key] = arms
	c.order = append(c.order, key)
	for c.max > 0 && len(c.order) > c.max {
		delete(c.points, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *pointCache) stats() cacheStats {
	if c == nil {
		return cacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Points: len(c.points), Hits: c.hits, Misses: c.misses}
}
