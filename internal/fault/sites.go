package fault

// This file is the single registry of failpoint site names. Every
// fault.Register call in the module must pass one of these constants, each
// constant backs exactly one site, and no site constants may be declared
// anywhere else — all three rules are enforced at build time by the
// failpoint analyzer (cmd/simlint), so the EMCSIM_FAILPOINTS documentation
// below cannot drift from the code.
//
// Arm sites via the environment, e.g.:
//
//	EMCSIM_FAILPOINTS='service/worker.prerun=prob:0.01:seed7;sim/cycle=after:1000:oneshot'
const (
	// SiteSimCycle fires inside System.step, before the cycle's work; used
	// to crash a simulation mid-run for retry and chaos testing.
	SiteSimCycle = "sim/cycle"

	// SiteQueueAdmit fires in the scheduler's admit path, before a job is
	// enqueued.
	SiteQueueAdmit = "service/queue.admit"
	// SiteWorkerPre fires in the worker loop after dequeue, before the
	// simulation runs.
	SiteWorkerPre = "service/worker.prerun"
	// SiteWorkerPost fires after a simulation completes, before its result
	// is published.
	SiteWorkerPost = "service/worker.postrun"
	// SiteDrain fires during graceful drain/shutdown.
	SiteDrain = "service/drain"

	// SiteCacheGet fires on in-memory result-cache lookups.
	SiteCacheGet = "service/cache.get"
	// SiteCachePut fires on in-memory result-cache inserts.
	SiteCachePut = "service/cache.put"

	// SiteDurablePut fires while persisting a result record to disk.
	SiteDurablePut = "service/durable.put"
	// SiteDurableLoad fires while loading durable records at boot.
	SiteDurableLoad = "service/durable.load"

	// SiteClusterForward fires on every inter-node RPC a routing node makes
	// for a forwarded job (submit, status poll, cancel); a firing is treated
	// as the owner being unreachable, driving the re-dispatch path — the
	// fabric's partition model.
	SiteClusterForward = "cluster/forward"
	// SiteClusterFetch fires on the peer-fetch read path (fetching a durable
	// record from a peer instead of recomputing).
	SiteClusterFetch = "cluster/fetch"
	// SiteClusterFetchRecv fires while accepting a record a peer sent (a
	// peer fetch or an anti-entropy backfill); a firing tears one byte of the
	// frame, which the CRC check must reject.
	SiteClusterFetchRecv = "cluster/fetch.recv"
	// SiteClusterHeartbeat fires in the heartbeat loop, skipping that round's
	// probe of one peer — heartbeat loss without a real partition.
	SiteClusterHeartbeat = "cluster/heartbeat"
	// SiteClusterSteal fires on the work-stealing victim path, refusing to
	// forward a queued job to the thief.
	SiteClusterSteal = "cluster/steal"

	// SiteClusterAntiEntropyKeys fires on the anti-entropy key-list
	// exchange: the round's key-list RPC fails as unreachable, so the node
	// skips that peer this round and converges on a later one.
	SiteClusterAntiEntropyKeys = "cluster/antientropy.keys"
	// SiteClusterAntiEntropyFetch fires on an anti-entropy backfill fetch:
	// one missing record is not retrieved this round (a later round must
	// cover it).
	SiteClusterAntiEntropyFetch = "cluster/antientropy.fetch"
)
