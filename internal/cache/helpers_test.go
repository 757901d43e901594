package cache

// Flush invalidates all lines, counting writebacks of dirty lines. It is
// the differential tests' view of which dirty lines are resident.
func (c *Cache) Flush() {
	for i := range c.w {
		if c.w[i].key&(keyValid|keyDirty) == keyValid|keyDirty {
			c.stats.Writebacks++
		}
		c.w[i] = way{}
	}
}
