package cluster

import "nab/internal/metrics"

// Control-plane instruments. The transitions themselves are flight
// events (EvRejoinRound, EvJoinRound).
var (
	mRollbackRounds = metrics.NewCounter("nab_cluster_rollback_rounds_total",
		"Rollback rounds this process has been pulled through.")
	mRejoinDuration = metrics.NewHistogram("nab_cluster_rejoin_seconds",
		"Duration of completed rollback rounds, sync to resume.", metrics.LatencyBuckets)
	mJoinDuration = metrics.NewHistogram("nab_cluster_join_duration_seconds",
		"Blank-WAL join duration as the joiner saw it, announce to resume.", metrics.LatencyBuckets)
	mJoinRounds = metrics.NewCounter("nab_cluster_join_fetches_total",
		"Join-round state transfers this process completed as the joiner.")
	mJoinServerRejects = metrics.NewCounter("nab_cluster_join_server_rejects_total",
		"Serving peers rejected during a join fetch (their state disagreed with the f+1 quorum).")
	mJoinQuorumShort = metrics.NewCounter("nab_cluster_join_quorum_short_total",
		"Join fetches refused because fewer than f+1 eligible snapshot servers existed.")
	mFloorSnapshots = metrics.NewCounter("nab_cluster_floor_snapshots_total",
		"Rollback-floor snapshots persisted into this process's WAL.")
)
