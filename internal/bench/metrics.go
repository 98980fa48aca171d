package bench

// Better is the direction in which a metric improves.
type Better string

const (
	Higher Better = "higher"
	Lower  Better = "lower"
)

// MetricDef declares one metric: BENCHMARK.json carries the same list
// (a test holds the two equal), and -compare reads the bounds from here.
type MetricDef struct {
	Name   string
	Unit   string
	Better Better
	// Bound is the share of the baseline's median by which an
	// end-to-end metric may worsen before -compare (and the driver)
	// reject a change. Per-layer metrics have none.
	Bound float64
}

// EndToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from the untraced run only.
var EndToEnd = []MetricDef{
	{"setup_s", "s", Lower, 0.25},
	{"ligands_per_s", "1/s", Higher, 0.25},
	{"jobs_per_s", "1/s", Higher, 0.25},
	{"lifecycle_ms_p50", "ms", Lower, 0.25},
	{"replay_s", "s", Lower, 0.25},
	{"replay_compacted_s", "s", Lower, 0.25},
	{"state_bytes_per_job", "B", Lower, 0.02},
	{"peak_rss_mb", "MB", Lower, 0.25},
}

// PerLayer are the metrics of single layers (layer = module, the part
// of the name before the dot). They come from the traced run and carry
// no bound; cmd/impeccable-bench/README.md maps each to the end-to-end
// metric it should move.
var PerLayer = []MetricDef{
	// Client-visible latencies that are not universal enough, or not
	// steady enough, to gate on.
	{"http.submit_client_ms_p50", "ms", Lower, 0},
	{"http.submit_client_ms_tail", "ms", Lower, 0},
	{"http.result_client_ms_p50", "ms", Lower, 0},
	{"http.result_client_ms_tail", "ms", Lower, 0},
	{"http.result_cold_ms_p50", "ms", Lower, 0},
	{"http.submit_server_ms_p50", "ms", Lower, 0},
	{"http.lease_server_ms_p50", "ms", Lower, 0},
	{"http.heartbeat_server_ms_p50", "ms", Lower, 0},
	{"http.complete_server_ms_p50", "ms", Lower, 0},
	{"http.result_server_ms_p50", "ms", Lower, 0},
	{"http.transport_us_p50", "us", Lower, 0},
	{"http.overhead_us", "us", Lower, 0},

	{"scheduler.lease_us_p50", "us", Lower, 0},
	{"scheduler.queue_wait_ms_p50", "ms", Lower, 0},
	{"scheduler.light_lifecycle_ms_tail", "ms", Lower, 0},
	{"scheduler.flood_lifecycle_ms_p50", "ms", Lower, 0},
	{"scheduler.light_wait_slots_max", "count", Lower, 0},
	{"tenant.rejections", "count", Lower, 0},

	{"journal.appends_per_job", "count", Lower, 0},
	{"journal.fsyncs_per_job", "count", Lower, 0},
	{"journal.bytes_per_job", "B", Lower, 0},
	{"journal.fsync_ms_mean", "ms", Lower, 0},
	{"journal.cost_ms_per_job", "ms", Lower, 0},
	{"journal.rotations", "count", Lower, 0},
	{"journal.compactions", "count", Higher, 0},
	{"journal.compact_ms", "ms", Lower, 0},
	{"journal.replay_ms_per_kjob", "ms", Lower, 0},
	{"journal.compacted_bytes_ratio", "ratio", Lower, 0},

	{"blob.puts_per_job", "count", Lower, 0},
	{"blob.bytes_per_job", "B", Lower, 0},
	{"blob.put_us_p50", "us", Lower, 0},
	{"blob.get_us_p50", "us", Lower, 0},

	{"cache.score_hit_ratio", "ratio", Higher, 0},
	{"cache.feature_hit_ratio", "ratio", Higher, 0},
	{"cache.entries", "count", Lower, 0},
	{"cache.snapshots_per_job", "count", Lower, 0},
	{"cache.snapshot_ms_mean", "ms", Lower, 0},
	{"cache.merge_entries_per_complete", "count", Lower, 0},

	{"provenance.proof_ms_p50", "ms", Lower, 0},
	{"provenance.verify_s", "s", Lower, 0},

	{"worker.overhead_s", "s", Lower, 0},
	{"worker.heartbeats_per_job", "count", Lower, 0},
	{"worker.complete_upload_bytes", "B", Lower, 0},

	{"campaign.s1_train_s", "s", Lower, 0},
	{"campaign.ml1_train_s", "s", Lower, 0},
	{"campaign.ml1_screen_s", "s", Lower, 0},
	{"campaign.s1_dock_s", "s", Lower, 0},
	{"campaign.s3_cg_s", "s", Lower, 0},
	{"campaign.s2_s", "s", Lower, 0},
	{"campaign.s3_fg_s", "s", Lower, 0},
	{"campaign.overlap_ratio", "ratio", Higher, 0},
	{"campaign.streaming_front_speedup", "ratio", Higher, 0},
	{"campaign.entk_wall_ratio", "ratio", Lower, 0},
	{"campaign.parallel_speedup", "ratio", Higher, 0},

	{"dock.docks_per_s", "1/s", Higher, 0},
	{"dock.evals_per_dock", "count", Lower, 0},
	{"dock.evals_per_s", "1/s", Higher, 0},

	{"surrogate.infer_ligands_per_s", "1/s", Higher, 0},
	{"surrogate.featurize_ligands_per_s", "1/s", Higher, 0},
	{"surrogate.train_s", "s", Lower, 0},
	{"nn.matmul_gflops", "GFLOP/s", Higher, 0},
	{"chem.fromid_per_s", "1/s", Higher, 0},

	{"esmacs.cg_estimates_per_s", "1/s", Higher, 0},
	{"esmacs.fg_estimates_per_s", "1/s", Higher, 0},
	{"md.steps_per_s", "1/s", Higher, 0},
	{"deepdrive.s2_s_per_compound", "s", Lower, 0},
	{"aae.train_batches_per_s", "1/s", Higher, 0},
	{"latent.lof_points_per_s", "1/s", Higher, 0},

	{"obs.scrape_ms", "ms", Lower, 0},
	{"obs.series", "count", Lower, 0},

	{"trace.spans", "count", Lower, 0},
	{"trace.overhead_ratio", "ratio", Lower, 0},
	{"trace.explained_ratio", "ratio", Higher, 0},
}

// Value is one reported measurement.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a timing; 0 for counts and
	// rates.
	N int `json:"n,omitempty"`
	// Level is the percentile a *_tail metric reports (the highest with
	// at least ten samples beyond it).
	Level float64 `json:"level,omitempty"`
}
