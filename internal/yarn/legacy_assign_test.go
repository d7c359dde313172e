package yarn

// Frozen copy of the full-sweep assign (every progress iteration walks
// all managed nodes from the cursor), kept as the golden reference for
// the candidate-node sweep: both must place the same request on the
// same node for the same app, and leave the cursor in the same place,
// after every pass. The copy is deliberately verbatim-in-behavior — do
// not "improve" it; its only job is to stay what assign was. (Same
// precedent as the frozen engine in internal/sim/legacy_engine_test.go.)

// legacyAssign walks nodes round-robin, letting the scheduler pick an app
// for each node with free capacity, until no more placements succeed.
func (rm *ResourceManager) legacyAssign() {
	n := len(rm.nodes)
	if n == 0 {
		return
	}
	if rm.totalPending == 0 {
		// An empty pass places nothing but still rotates the round-robin
		// cursor once (the progress loop runs exactly once).
		rm.assignCur = (rm.assignCur + 1) % n
		return
	}
	placedAny := false
	// When a third or more of the cluster is blacklisted, ignore the
	// blacklist rather than starve (the AM node-blacklisting ignore
	// threshold, 33% in Hadoop).
	ignoreBlacklist := rm.blackCount*3 >= n
	// Delay-scheduling eligibility for the whole pass: while no
	// unconstrained request is pending and every constrained request is
	// younger than the rack (resp. off-rack) threshold, only preferred
	// nodes (resp. their racks) can receive a placement. assign runs at
	// one instant and placements only remove requests, so computing
	// this once up front errs, if at all, toward scanning a node the
	// sweep could have skipped — never toward skipping a placeable one.
	now := rm.shard.Now()
	oldest := rm.oldestConstrainedEnqueue()
	rackEligible := oldest >= 0 && now-oldest >= rm.RackDelay
	offRackEligible := oldest >= 0 && now-oldest >= rm.OffRackDelay
	pass := func(useFilter bool, minAge float64) {
		progress := true
		for progress {
			progress = false
			for i := 0; i < n; i++ {
				if rm.totalPending == 0 {
					// The last placement drained the pending set; the rest
					// of the sweep cannot place anything. Bailing here is
					// behavior-identical (anyPendingFits would reject every
					// remaining node, and the cursor rotates after the loop
					// either way) but turns the common one-request case on
					// a 10k-node cluster from O(nodes) into O(1).
					break
				}
				node := rm.nodes[(rm.assignCur+i)%n]
				nid := node.ID - rm.baseID
				if rm.nodeDown[nid] || (rm.blacklisted[nid] && !ignoreBlacklist) {
					continue
				}
				if rm.unconstrained == 0 && !offRackEligible &&
					rm.prefNode[nid] == 0 &&
					(!rackEligible || rm.prefRack[node.Rack] == 0) {
					// No request may place here: selectRequest would
					// return nil for every app the scheduler could pick,
					// and neither Pick nor selectRequest has side effects.
					continue
				}
				if useFilter && rm.NodeFilter != nil && !rm.NodeFilter(node) {
					continue
				}
				if !rm.anyPendingFits(node) {
					continue // no scheduler could place here
				}
				idx := rm.sched.Pick(rm.apps, node)
				if idx < 0 {
					continue
				}
				app := rm.apps[idx]
				req := rm.selectRequest(app, node, minAge)
				if req == nil {
					continue
				}
				rm.place(app, req, node)
				progress = true
				placedAny = true
			}
			rm.assignCur = (rm.assignCur + 1) % n
		}
	}
	pass(true, 0)
	if !placedAny && rm.NodeFilter != nil && rm.hasPending() {
		// Nothing placed on acceptable nodes: requests that have waited
		// past the fallback delay may take a hot node rather than
		// stall the job.
		pass(false, rm.HotSpotFallbackDelay)
	}
	rm.scheduleRelaxRetry()
}
