package storage

import "repro/internal/obs"

// Write-path metrics, registered on the process-wide obs registry. The
// store's own Metrics() snapshot stays the /stats source of truth;
// these series are the Prometheus view of the same traffic plus the
// latency distributions a snapshot cannot carry.
var (
	mCommits = obs.Default.Counter("simq_store_commits_total",
		"Committed WAL transactions (live traffic, not replay).")
	mWALAppends = obs.Default.Counter("simq_wal_appends_total",
		"WAL transaction appends.")
	mWALBytes = obs.Default.Counter("simq_wal_bytes_total",
		"Bytes framed into the WAL.")
	mWALFsync = obs.Default.Histogram("simq_wal_fsync_seconds",
		"Latency of the per-commit WAL fsync.", obs.DefBuckets)
	mReplayTx = obs.Default.Counter("simq_wal_replayed_tx_total",
		"Transactions replayed from the WAL at store open.")
	mReplayOps = obs.Default.Counter("simq_wal_replayed_ops_total",
		"Operations replayed from the WAL at store open.")
	mReplayMillis = obs.Default.Gauge("simq_wal_replay_ms",
		"Wall time in milliseconds of the most recent WAL replay at store open.")
	mTruncatedFrames = obs.Default.Counter("simq_wal_truncated_frames",
		"Torn, corrupt or mismatched WAL tails truncated away at store open.")
	mGroupCommitBatch = obs.Default.Histogram("simq_group_commit_batch",
		"Commits covered by one WAL fsync (group-commit batch size).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	mCheckpoints = obs.Default.Counter("simq_checkpoints_total",
		"Checkpoints written (snapshot + WAL truncation).")
	mCheckpointSeconds = obs.Default.Histogram("simq_checkpoint_seconds",
		"Wall time of a checkpoint: serialize, fsync, rename, truncate.", obs.DefBuckets)
	mCheckpointBytes = obs.Default.Gauge("simq_checkpoint_bytes",
		"Size in bytes of the most recent checkpoint snapshot file.")
	mCheckpointRows = obs.Default.Gauge("simq_checkpoint_rows",
		"Visible rows captured by the most recent checkpoint snapshot.")
	mReplayTailTx = obs.Default.Gauge("simq_wal_replay_tail_tx",
		"Transactions replayed from the WAL tail at the most recent open (post-snapshot tail when a checkpoint was loaded).")
)
