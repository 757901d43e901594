package cache

// Flush invalidates all lines, counting writebacks of dirty lines. It is
// the differential tests' view of which dirty lines are resident.
func (c *Cache) Flush() {
	for i, k := range c.keys {
		if k&(keyValid|keyDirty) == keyValid|keyDirty {
			c.stats.Writebacks++
		}
		c.keys[i] = 0
	}
}
