package seq

// StartFill registers an unfinished cache fill for width holding db, as
// if another goroutine were still building it, and returns the function
// that completes it. Tests use it to check that no caller derives from, or
// waits on, a wider fill still in flight.
func (c *Corpus) StartFill(width int, db *DB) (finish func()) {
	e := &corpusEntry{done: make(chan struct{}), db: db}
	c.mu.Lock()
	c.entries[width] = e
	c.mu.Unlock()
	return func() { close(e.done) }
}
