package serve

// fifo is the batcher's pending set: admitted requests in admission
// order. A server serves one archetype, so every pending request shares
// one deadline and the head, having waited longest, has the least slack.
type fifo struct{ reqs []*request }

func (q *fifo) push(r *request) { q.reqs = append(q.reqs, r) }

func (q *fifo) len() int { return len(q.reqs) }

// oldest returns the earliest-admitted pending request; the set must not
// be empty.
func (q *fifo) oldest() *request { return q.reqs[0] }

// take removes and returns the first n pending requests (all of them when
// fewer are pending). The batch is capped at its own length, so later
// pushes never write into it.
func (q *fifo) take(n int) []*request {
	if n > len(q.reqs) {
		n = len(q.reqs)
	}
	batch := q.reqs[:n:n]
	q.reqs = q.reqs[n:]
	return batch
}
