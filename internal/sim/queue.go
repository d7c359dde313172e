package sim

// Typed priority queues of the engine. Both order by the (time, seq)
// key; seq is unique, so the key is a total order and any correct
// priority queue pops the same sequence — the queue shape is a pure
// performance choice (TestEventQueueMatchesContainerHeap pins it
// against container/heap).

// qentry is one event-queue slot. The key is stored inline so sifting
// compares entries without dereferencing their events.
type qentry struct {
	at  float64
	seq uint64
	ev  *Event
}

func (a *qentry) less(b *qentry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a shard's 4-ary min-heap of pending events. The wider
// fan-out halves the tree depth of a binary heap, and a node's four
// children share a cache line or two, so a pop's sift-down does fewer,
// cheaper levels. Every move keeps Event.index equal to the event's
// slot (-1 once it leaves the queue).
type eventQueue []qentry

// push adds ev under its current (at, seq) key.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, qentry{at: ev.at, seq: ev.seq, ev: ev})
	q.up(len(*q) - 1)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() *Event {
	h := *q
	ev := h[0].ev
	n := len(h) - 1
	h[0] = h[n]
	h[n] = qentry{}
	*q = h[:n]
	if n > 0 {
		q.down(0)
	}
	ev.index = -1
	return ev
}

// fix restores heap order after the event at slot i changed its key,
// re-reading the key from the event.
func (q *eventQueue) fix(i int) {
	e := &(*q)[i]
	e.at, e.seq = e.ev.at, e.ev.seq
	if !q.down(i) {
		q.up(i)
	}
}

// remove deletes the event at slot i.
func (q *eventQueue) remove(i int) {
	h := *q
	ev := h[i].ev
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
	}
	h[n] = qentry{}
	*q = h[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
	ev.index = -1
}

func (q *eventQueue) up(i int) {
	h := *q
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = e
	e.ev.index = i
}

// down sifts slot i toward the leaves and reports whether it moved.
func (q *eventQueue) down(i int) bool {
	h := *q
	n := len(h)
	i0 := i
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].less(&h[m]) {
				m = j
			}
		}
		if !h[m].less(&e) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = e
	e.ev.index = i
	return i != i0
}

// shardHeap is the engine's binary min-heap of non-empty shards keyed
// by their cached earliest (minAt, minSeq); the root owns the global
// minimum event. Idle shards are not in it. Shard.pos tracks each
// member's slot (-1 when absent). It stays binary because secondBest
// reads the root's two children as the runner-up candidates.
type shardHeap []*Shard

func shardLess(a, b *Shard) bool {
	return a.minAt < b.minAt || (a.minAt == b.minAt && a.minSeq < b.minSeq)
}

func (h *shardHeap) push(s *Shard) {
	*h = append(*h, s)
	h.up(len(*h) - 1)
}

// remove deletes the shard at slot i.
func (h *shardHeap) remove(i int) {
	o := *h
	s := o[i]
	n := len(o) - 1
	if i != n {
		o[i] = o[n]
		o[i].pos = i
	}
	o[n] = nil
	*h = o[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	s.pos = -1
}

// fix restores heap order after the shard at slot i changed its key.
func (h *shardHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *shardHeap) up(i int) {
	o := *h
	s := o[i]
	for i > 0 {
		p := (i - 1) / 2
		if !shardLess(s, o[p]) {
			break
		}
		o[i] = o[p]
		o[i].pos = i
		i = p
	}
	o[i] = s
	s.pos = i
}

func (h *shardHeap) down(i int) bool {
	o := *h
	n := len(o)
	i0 := i
	s := o[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && shardLess(o[r], o[c]) {
			c = r
		}
		if !shardLess(o[c], s) {
			break
		}
		o[i] = o[c]
		o[i].pos = i
		i = c
	}
	o[i] = s
	s.pos = i
	return i != i0
}
