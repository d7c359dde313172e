package cluster

import "math"

// Frozen copy of the general component recompute as it stood before
// the one-round kernel: the component sweep, advance, progressive
// filling round by round, index-ordered meter sums and reschedules. It
// is the golden reference for oneRound (TestOneRoundKernelMatchesGeneral)
// and is deliberately verbatim in behavior — do not "improve" it; its
// only job is to stay what recompute was. The reference fabric runs its
// own start, cancel, completion and capacity paths so that every
// recompute it does goes through this copy; it always has several
// links, so the single-link kernel never applies. (Same precedent as
// the frozen assign in internal/yarn/legacy_assign_test.go.)

// legacyStart is Fabric.Start on a multi-link fabric, recomputing with
// legacyRecompute and completing through legacyComplete.
func (fb *Fabric) legacyStart(links []*Link, work, rateCap float64, done func()) *Flow {
	f := fb.pool.get(fb)
	f.onComplete = func() { fb.legacyComplete(f) }
	f.nlinks = uint8(copy(f.links[:], links))
	f.remaining = work
	f.rateCap = rateCap
	f.done = done
	f.index = -1
	if work == 0 {
		f.ev = fb.shard.After(0, f.onComplete)
		return f
	}
	f.index = int32(len(fb.flows))
	fb.flows = append(fb.flows, f)
	for i, l := range f.linkSet() {
		f.pos[i] = int32(len(l.flows))
		l.flows = append(l.flows, f)
	}
	fb.legacyRecompute(f.linkSet(), f)
	return f
}

// legacyCancel is Fabric.Cancel.
func (fb *Fabric) legacyCancel(f *Flow) {
	if f == nil || f.finished {
		return
	}
	f.finished = true
	if f.ev != nil {
		fb.shard.Cancel(f.ev)
		f.ev = nil
	}
	if f.index >= 0 {
		fb.remove(f)
		fb.legacyRecompute(f.linkSet(), nil)
	}
}

// legacyComplete is Fabric.complete.
func (fb *Fabric) legacyComplete(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	f.ev = nil
	f.remaining = 0
	if f.index >= 0 {
		fb.remove(f)
		fb.legacyRecompute(f.linkSet(), nil)
	}
	if f.done != nil {
		f.done()
	}
}

// legacySetCapacity is Fabric.SetCapacity.
func (fb *Fabric) legacySetCapacity(l *Link, capacity float64) {
	if capacity == l.Capacity {
		return
	}
	l.Capacity = capacity
	seeds := [1]*Link{l}
	fb.legacyRecompute(seeds[:], nil)
}

// legacyReschedule is Fabric.reschedule.
func (fb *Fabric) legacyReschedule(f *Flow, now float64) {
	if f.rate == f.prevRate && (f.ev != nil || f.rate == 0) {
		return
	}
	if f.rate > 0 {
		if f.ev != nil {
			f.ev = fb.shard.Reschedule(f.ev, now+f.remaining/f.rate)
		} else {
			f.ev = fb.shard.After(f.remaining/f.rate, f.onComplete)
		}
	} else if f.ev != nil {
		fb.shard.Cancel(f.ev)
		f.ev = nil
	}
}

// legacyAdvance is Flow.advance.
func (f *Flow) legacyAdvance(now float64) {
	if f.rate > 0 {
		f.remaining -= f.rate * (now - f.lastAdvance)
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastAdvance = now
	f.prevRate = f.rate
}

// legacyRecompute is the general recompute: sweep the component,
// advance it, fill it round by round, then update meters and
// reschedule in index order.
func (fb *Fabric) legacyRecompute(seeds []*Link, seedFlow *Flow) {
	now := fb.shard.Now()
	p := fb.pool

	p.epoch++
	ep := p.epoch
	links := p.dirtyLinks[:0]
	flows := p.dirtyFlows[:0]
	for _, l := range seeds {
		if l.visit != ep {
			l.visit = ep
			links = append(links, l)
		}
	}
	if seedFlow != nil && seedFlow.visit != ep {
		seedFlow.visit = ep
		flows = append(flows, seedFlow)
	}
	for i := 0; i < len(links); i++ {
		for _, f := range links[i].flows {
			if f.visit != ep {
				f.visit = ep
				flows = append(flows, f)
				for _, fl := range f.linkSet() {
					if fl.visit != ep {
						fl.visit = ep
						links = append(links, fl)
					}
				}
			}
		}
	}
	p.dirtyLinks = links
	p.dirtyFlows = flows

	if len(flows) == 0 {
		for _, l := range links {
			l.used.Set(now, 0)
		}
		return
	}

	for _, f := range flows {
		f.legacyAdvance(now)
	}

	for _, l := range links {
		l.remaining = l.Capacity
		l.count = 0
	}
	active := p.activeFlows[:0]
	for _, f := range flows {
		f.rate = 0
		active = append(active, f)
		for _, l := range f.linkSet() {
			l.count++
		}
	}
	p.activeFlows = active
	for len(active) > 0 {
		delta := math.Inf(1)
		for _, l := range links {
			if l.count > 0 {
				if share := l.remaining / float64(l.count); share < delta {
					delta = share
				}
			}
		}
		for _, f := range active {
			if f.rateCap > 0 {
				if room := f.rateCap - f.rate; room < delta {
					delta = room
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range active {
			f.rate += delta
		}
		for _, l := range links {
			l.remaining -= delta * float64(l.count)
		}
		for i := 0; i < len(active); {
			f := active[i]
			freeze := false
			if f.rateCap > 0 && f.rate >= f.rateCap-relEps*f.rateCap {
				freeze = true
			}
			if !freeze {
				for _, l := range f.linkSet() {
					if l.remaining <= relEps*l.Capacity {
						freeze = true
						break
					}
				}
			}
			if freeze {
				for _, l := range f.linkSet() {
					l.count--
				}
				last := len(active) - 1
				active[i] = active[last]
				active = active[:last]
			} else {
				i++
			}
		}
		if delta == 0 && len(active) > 0 {
			for _, f := range active {
				for _, l := range f.linkSet() {
					l.count--
				}
			}
			active = active[:0]
		}
	}

	if len(flows) <= 24 {
		for i := 1; i < len(flows); i++ {
			f := flows[i]
			j := i - 1
			for j >= 0 && flows[j].index > f.index {
				flows[j+1] = flows[j]
				j--
			}
			flows[j+1] = f
		}
	} else {
		ordered := p.orderedFlows[:0]
		for _, g := range fb.flows {
			if g.visit != ep {
				continue
			}
			ordered = append(ordered, g)
			if len(ordered) == len(flows) {
				break
			}
		}
		p.orderedFlows = p.dirtyFlows
		p.dirtyFlows = ordered
		flows = ordered
	}
	for _, l := range links {
		l.remaining = 0
	}
	for _, f := range flows {
		for _, l := range f.linkSet() {
			l.remaining += f.rate
		}
	}
	for _, l := range links {
		l.used.Set(now, l.remaining)
	}
	for _, f := range flows {
		fb.legacyReschedule(f, now)
	}
}
