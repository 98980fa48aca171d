package bench

import (
	"time"

	"impeccable"
)

// The /metrics families the harness reads. A family renamed or pruned
// from the service (ROADMAP item 3) shows up here as a zero, and
// cmd/impeccable-bench/README.md lists these names as having a reader.
const (
	famJournalAppends   = "impeccable_journal_appends_total"
	famJournalBytes     = "impeccable_journal_append_bytes_total"
	famJournalFsyncN    = "impeccable_journal_fsync_seconds_count"
	famJournalFsyncSum  = "impeccable_journal_fsync_seconds_sum"
	famJournalRotations = "impeccable_journal_rotations_total"
	famJournalCompacts  = "impeccable_journal_compactions_total"
	famBlobPuts         = "impeccable_blob_store_puts_total"
	famBlobBytes        = "impeccable_blob_store_bytes"
	famSnapshots        = "impeccable_snapshots_total"
	famSnapshotSum      = "impeccable_snapshot_seconds_sum"
	famWorkerHits       = "impeccable_worker_cache_hits_total"
	famWorkerMisses     = "impeccable_worker_cache_misses_total"
	famHeartbeats       = "impeccable_lease_heartbeats_total"
	famRejections       = "impeccable_tenant_rejections_total"
	famTerminal         = "impeccable_jobs_terminal_total"
)

// traceCampaign adds, for one finished funnel campaign of a traced run,
// the spans the harness cannot time directly: the queue wait (from the
// job snapshot's timestamps) and the worker's run with one child per
// funnel stage (from the result's stage timings, anchored at the lease
// grant the tap saw).
func (e *execution) traceCampaign(c *cluster, id string, sum impeccable.ResultSummary) {
	if e.rec == nil {
		return
	}
	e.traceQueueWait(c, id)
	lt, ok := e.tap.lease(id)
	if !ok {
		return
	}
	wall := time.Duration(sum.Funnel.WallSeconds * float64(time.Second))
	e.workerOverheadS.add((lt.completed.Sub(lt.granted) - wall).Seconds())
	e.uploadBytes.add(float64(lt.uploadBytes))
	run := e.rec.add(0, id, "worker.run", lt.granted, lt.granted.Add(wall))
	for _, st := range sum.Funnel.Timings {
		start := lt.granted.Add(time.Duration(st.StartS * float64(time.Second)))
		e.rec.add(run, id, "campaign."+st.Stage, start, start.Add(time.Duration(st.Seconds*float64(time.Second))))
	}
}

// traceQueueWait records a job's queue.wait span from its snapshot.
func (e *execution) traceQueueWait(c *cluster, id string) {
	if e.rec == nil {
		return
	}
	snap, err := c.status(id)
	e.ops.done(err)
	if err == nil && snap.Started != nil {
		e.rec.add(0, id, "queue.wait", snap.Submitted, *snap.Started)
	}
}

// perLayer derives the per-layer metrics of a traced execution; plain
// is the untraced execution of the same plan, for the tracing overhead.
func (e *execution) perLayer(plain *execution) map[string]Value {
	spans := e.rec.snapshot()
	dur := byName(spans)
	out := map[string]Value{}
	timing := func(name string, s series, scale float64, unit string) {
		out[name] = Value{Value: s.median() * scale, Unit: unit, N: len(s)}
	}
	tail := func(name string, s series) {
		level, v := s.tail()
		out[name] = Value{Value: v, Unit: "ms", N: len(s), Level: level}
	}
	count := func(name string, v float64, unit string) { out[name] = Value{Value: v, Unit: unit} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// ---- service/http ----
	timing("http.submit_client_ms_p50", e.submitMS, 1, "ms")
	tail("http.submit_client_ms_tail", e.submitMS)
	timing("http.result_client_ms_p50", e.resultMS, 1, "ms")
	tail("http.result_client_ms_tail", e.resultMS)
	timing("http.result_cold_ms_p50", e.coldResultMS, 1, "ms")
	for _, route := range []string{"submit", "lease", "heartbeat", "complete", "result"} {
		timing("http."+route+"_server_ms_p50", dur["coordinator."+route], 1, "ms")
	}
	// Transport is what a call costs beyond the coordinator's handler:
	// the client span's self-time, once its coordinator child is taken
	// out (loopback TCP, net/http on both sides, JSON on the client).
	var transport series
	for name, s := range selfByName(spans) {
		if name == "client.submit" || name == "client.result" ||
			name == "worker.lease" || name == "worker.heartbeat" || name == "worker.complete" {
			transport = append(transport, s...)
		}
	}
	timing("http.transport_us_p50", transport, 1000, "us")

	// ---- scheduler + tenant ----
	timing("scheduler.queue_wait_ms_p50", dur["queue.wait"], 1, "ms")
	tail("scheduler.light_lifecycle_ms_tail", e.lifecycleMS)
	timing("scheduler.flood_lifecycle_ms_p50", e.floodLifecycleMS, 1, "ms")
	count("scheduler.light_wait_slots_max", float64(e.lightSlotsMax), "count")
	delta := func(fam string, match ...string) float64 {
		var d float64
		for _, pair := range e.scrapes {
			d += pair[1].sum(fam, match...) - pair[0].sum(fam, match...)
		}
		return d
	}
	count("tenant.rejections", delta(famRejections), "count")

	// ---- journal, blob, cache: count deltas across the live phase ----
	jobs := delta(famTerminal)
	count("journal.appends_per_job", ratio(delta(famJournalAppends), jobs), "count")
	count("journal.fsyncs_per_job", ratio(delta(famJournalFsyncN), jobs), "count")
	count("journal.bytes_per_job", ratio(delta(famJournalBytes), jobs), "B")
	count("journal.fsync_ms_mean", 1000*ratio(delta(famJournalFsyncSum), delta(famJournalFsyncN)), "ms")
	count("journal.rotations", delta(famJournalRotations), "count")
	count("journal.compactions", delta(famJournalCompacts), "count")
	count("journal.compact_ms", ms(e.compact), "ms")
	stateJobs := float64(len(e.terminal) + len(e.pending))
	count("journal.replay_ms_per_kjob", 1000*1000*ratio(e.replayS.median(), stateJobs), "ms")
	count("journal.compacted_bytes_ratio", ratio(float64(e.journalBytes[1]), float64(e.journalBytes[0])), "ratio")
	count("blob.puts_per_job", ratio(delta(famBlobPuts), jobs), "count")
	count("blob.bytes_per_job", ratio(delta(famBlobBytes), jobs), "B")
	count("cache.score_hit_ratio", ratio(delta(famWorkerHits, "cache", "score"),
		delta(famWorkerHits, "cache", "score")+delta(famWorkerMisses, "cache", "score")), "ratio")
	count("cache.feature_hit_ratio", ratio(delta(famWorkerHits, "cache", "feature"),
		delta(famWorkerHits, "cache", "feature")+delta(famWorkerMisses, "cache", "feature")), "ratio")
	count("cache.entries", float64(e.cacheEntries[1]), "count")
	count("cache.snapshots_per_job", ratio(delta(famSnapshots), jobs), "count")
	count("cache.snapshot_ms_mean", 1000*ratio(delta(famSnapshotSum), delta(famSnapshots)), "ms")
	count("cache.merge_entries_per_complete", ratio(float64(e.cacheEntries[1]-e.cacheEntries[0]), jobs), "count")

	// ---- provenance ----
	timing("provenance.proof_ms_p50", e.proofMS, 1, "ms")
	count("provenance.verify_s", e.verify.Seconds(), "s")

	// ---- worker ----
	timing("worker.overhead_s", e.workerOverheadS, 1, "s")
	count("worker.heartbeats_per_job", ratio(delta(famHeartbeats), jobs), "count")
	if e.stub != nil {
		e.uploadBytes = e.stub.uploads
	}
	count("worker.complete_upload_bytes", e.uploadBytes.mean(), "B")

	// ---- campaign: stage medians from the results' stage timings ----
	stages := map[string]string{
		"s1-train": "s1_train", "ml1-train": "ml1_train", "ml1-screen": "ml1_screen",
		"s1-dock": "s1_dock", "s3-cg": "s3_cg", "s2": "s2", "s3-fg": "s3_fg",
	}
	var stageSum float64
	for stage, short := range stages {
		s := dur["campaign."+stage]
		timing("campaign."+short+"_s", s, 1e-3, "s")
		stageSum += s.median() * 1e-3
	}
	count("campaign.overlap_ratio", e.overlap.median(), "ratio")
	top := e.s.ColdTop
	if e.opts.Workload == FunnelWarm {
		top = e.s.WarmTop
	}
	count("deepdrive.s2_s_per_compound", dur["campaign.s2"].median()*1e-3/float64(top), "s")

	// ---- obs ----
	count("obs.scrape_ms", ms(e.scrape), "ms")
	if n := len(e.scrapes); n > 0 {
		count("obs.series", float64(len(e.scrapes[n-1][1])), "count")
	}

	// ---- trace ----
	count("trace.spans", float64(len(spans)), "count")
	count("trace.overhead_ratio", ratio(e.liveWall.Seconds(), plain.liveWall.Seconds()), "ratio")
	// How much of the wall clock the layer breakdown explains. A funnel
	// lifecycle is the stages plus the worker's overhead; on the control
	// plane the busier of the two closed loops (submitting client, stub
	// worker) should be inside calls nearly all the time.
	switch e.opts.Workload {
	case FunnelCold, FunnelWarm:
		count("trace.explained_ratio", ratio(stageSum+e.workerOverheadS.median(), e.lifecycleMS.median()*1e-3), "ratio")
	default:
		var workerBusy float64
		for _, name := range []string{"worker.lease", "worker.heartbeat", "worker.complete"} {
			for _, v := range dur[name] {
				workerBusy += v * 1e-3
			}
		}
		busy := max(workerBusy, e.clientBusy.Seconds())
		if e.opts.Workload == RestartReplay {
			// Its wall clock is the cycles: replay, read-back, traffic.
			for _, s := range []series{e.coldResultMS, e.proofMS} {
				busy += s.mean() * float64(len(s)) * 1e-3
			}
			for _, s := range []series{e.replayS, e.replayCompactedS} {
				busy += s.mean() * float64(len(s))
			}
		}
		count("trace.explained_ratio", ratio(busy, e.liveWall.Seconds()), "ratio")
	}
	return out
}
