#ifndef TSB_SERVICE_SERVICE_H_
#define TSB_SERVICE_SERVICE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "core/builder.h"
#include "engine/engine.h"
#include "engine/nquery.h"
#include "engine/query.h"
#include "mutation/delta_log.h"
#include "mutation/mutation_engine.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "service/metrics.h"
#include "service/query_cache.h"
#include "service/request_parser.h"
#include "service/thread_pool.h"
#include "shard/scatter_gather.h"
#include "wire/message.h"

namespace tsb {
namespace service {

struct ServiceConfig {
  /// Worker threads; 0 means hardware_concurrency.
  size_t num_threads = 0;
  /// Admission bound of the interactive class: kInteractive requests in
  /// flight (queued + executing) beyond this are rejected with a
  /// kOverloaded wire error (kResourceExhausted through the legacy API)
  /// instead of queuing unboundedly.
  size_t max_in_flight = 256;
  /// Admission bound of the batch class. The legacy batch APIs
  /// (ExecuteBatch / ExecuteBatchAsync) bypass it — a batch is admitted as
  /// one unit — but their requests still count toward it, throttling
  /// concurrent wire-level batch submissions.
  size_t batch_max_in_flight = 1024;
  /// Workers a batch flood may occupy at once; 0 means num_threads - 1
  /// (minimum 1). Keeping at least one worker batch-free bounds an
  /// interactive request's queue wait by the running interactive work —
  /// not by however many batch SQL scans arrived first — which is what
  /// keeps interactive p95 near its batch-free level under mixed load.
  /// Batch items beyond the cap stay queued; each finishing batch request
  /// re-arms the drain, so capped work still completes in order.
  size_t max_concurrent_batch = 0;
  /// Result cache; set enable_cache=false to serve everything cold.
  /// `cache.max_bytes` is the service's total result-cache budget: 7/8
  /// goes to the 2-query cache, 1/8 to the 3-query cache.
  bool enable_cache = true;
  QueryCacheConfig cache;
  /// Distributed tracing: trace.sample_every = N traces one query in N
  /// (0 disables, the default); sampled queries record a span tree —
  /// queue wait, cache lookup, scatter fan-out, per-replica attempts,
  /// shard executions, merge — assembled across processes via the wire's
  /// v4 trace fields. Hot-adjustable at runtime via tracer().
  obs::TracerConfig trace;
  /// Slow-query log: queries at or above slow_query.threshold_seconds
  /// emit a structured record (0 disables, the default).
  obs::SlowQueryConfig slow_query;
};

/// One served answer. `result` carries the engine outcome (or the
/// rejection/shutdown status); `from_cache` is true when the result was a
/// cache hit; `service_seconds` is end-to-end latency including queue wait.
struct ServiceResponse {
  Result<engine::QueryResult> result;
  bool from_cache = false;
  double service_seconds = 0.0;
};

struct TripleResponse {
  Result<engine::TripleQueryResult> result;
  bool from_cache = false;
  double service_seconds = 0.0;
};

/// Aggregate outcome of a batch: one response per request (input order)
/// plus ExecStats totals accumulated with ExecStats::operator+=.
struct BatchOutcome {
  std::vector<ServiceResponse> responses;
  engine::ExecStats total;
  size_t cache_hits = 0;
  size_t failures = 0;
};

/// Configuration of a live store rebuild (see TopologyService::Rebuild).
struct RebuildOptions {
  /// Build configuration for the new epoch. table_namespace is overridden
  /// with an epoch-unique prefix ("e<N>.") by the service.
  core::BuildConfig build;
  /// When set, PruneFrequentTopologies runs for every rebuilt pair at this
  /// frequency threshold (Fast-Top methods need pruned tables).
  std::optional<size_t> prune_threshold;
  /// Refresh the global TopInfo table from the new catalog after the swap.
  bool export_topinfo = false;
};

struct RebuildStats {
  uint64_t epoch = 0;             // StoreHandle epoch after the swap.
  std::string table_namespace;    // Namespace the new tables live under.
  size_t pairs_built = 0;
  size_t catalog_topologies = 0;
  size_t shards_swapped = 0;      // 0 for unsharded rebuilds.
  double build_seconds = 0.0;     // Stage+commit (parallel, on the pool).
  double prune_seconds = 0.0;     // Per-pair prunes, fanned over the pool.
  double index_seconds = 0.0;     // Warm-index pre-build before the swap.
  /// Sharded rebuilds: AllTops rows per shard of the new epoch, and the
  /// skew factor max/mean (1.0 = perfectly balanced). Also published to
  /// the service metrics — the observability half of shard rebalancing.
  std::vector<uint64_t> shard_rows;
  double ShardSkew() const;
};

/// Completion hook of ExecuteBatchAsync: invoked exactly once, on the pool
/// worker that finishes the batch's last request (or on the submitting
/// thread when every request completes inline, e.g. after shutdown).
using BatchCallback = std::function<void(BatchOutcome)>;

/// The concurrent query frontend over engine::Engine — the serving layer
/// that turns the single-caller library into a shared multi-user service.
/// Its public API is the wire protocol (wire/message.h):
///
///   - Submit(WireRequest, StreamSink&) answers with one response frame;
///     SubmitStream pipelines a whole batch's frames to the sink in
///     completion order and ends with exactly one kStreamEnd frame
///   - every request carries a Priority class; the service keeps one
///     admission queue per class and always drains interactive work
///     before batch work, so batch SQL-baseline floods cannot starve
///     interactive top-k
///   - a request's deadline_seconds is enforced at dequeue: work that
///     expired while queued is shed with a kDeadlineExceeded wire error
///     instead of executing late
///   - a sharded LRU cache returns repeated queries without re-evaluation
///     (keys are canonical fingerprints; see FingerprintQuery)
///   - per-method and per-class metrics: requests, cache hits, errors,
///     rejections, sheds, p50/p95 latency, per-shard row skew
///   - a text frontend (SubmitLine) driven by RequestParser
///   - live store rebuilds: Rebuild() stages a fresh epoch on the same
///     pool and swaps it in behind traffic (see AttachLiveStore)
///
/// The future-based Submit/Execute and the ExecuteBatch/ExecuteBatchAsync
/// pair are thin adapters over the stream surface, kept for compatibility.
///
/// The engine must outlive the service. Engine::Execute is concurrency-safe
/// and pins a store snapshot per query, and TopologyCatalog interning is
/// thread-safe, so 2-queries, 3-queries, and rebuild staging all run
/// concurrently — no service-level reader/writer lock remains.
///
/// Rebuild flow: construct the engine with a core::StoreHandle, call
/// AttachLiveStore(schema, view), then Rebuild(options) at any time.
/// Rebuild builds a complete new store (parallel BuildAllPairs over the
/// worker pool, competing fairly with live queries), prunes it, swaps the
/// handle, and drops the result caches in the same step. In-flight queries
/// finish on the epoch they started with; the retired epoch's tables are
/// dropped when its last snapshot is released. Do not call Rebuild from a
/// pool worker (it waits on staging futures executed by that pool).
class TopologyService {
 public:
  TopologyService(const engine::Engine* engine, storage::Catalog* db,
                  ServiceConfig config = ServiceConfig{});

  /// Sharded construction: queries scatter-gather over `executor`'s shard
  /// set instead of a single engine; 3-queries and Rebuild() are wired
  /// through the executor's shard handles automatically (no AttachLiveStore
  /// needed). Cache fingerprints carry the per-shard epoch stamp, so a
  /// shard rolling forward orphans exactly the entries derived from it.
  /// The executor must outlive the service.
  TopologyService(shard::ScatterGatherExecutor* executor,
                  storage::Catalog* db,
                  ServiceConfig config = ServiceConfig{});

  ~TopologyService();

  TopologyService(const TopologyService&) = delete;
  TopologyService& operator=(const TopologyService&) = delete;

  /// Enables SubmitTriple against a fixed store; the pointers must outlive
  /// the service. Prefer AttachLiveStore when rebuilds are needed — a
  /// store enabled this way never follows epoch swaps.
  void EnableTripleQueries(core::TopologyStore* store,
                           const graph::SchemaGraph* schema,
                           const graph::DataGraphView* view);

  /// Enables Rebuild() and SubmitTriple through the engine's StoreHandle,
  /// so 3-queries and rebuilds always target the live epoch. Fails with
  /// FailedPrecondition when the engine was built with the legacy
  /// raw-pointer constructor: its non-owning store wrapper cannot honor
  /// the retired-epoch table cleanup (tables would leak, and the cleanup
  /// could fire after the database catalog is gone). Handle stores must be
  /// heap-owned and must not outlive `db`.
  Status AttachLiveStore(const graph::SchemaGraph* schema,
                         const graph::DataGraphView* view);

  /// Rebuilds the topology store behind live traffic (see class comment).
  /// Serialized against itself; queries keep flowing throughout.
  ///
  /// Sharded services stage a complete new shard set ("e<N>.s<i>." table
  /// namespaces), prune and warm-index it off the critical path, then roll
  /// the shards independently — one per-shard epoch swap at a time, each
  /// retiring its predecessor when the last in-flight sub-query releases
  /// it. Queries scattering mid-roll see a mix of old and new shard
  /// epochs; both partition the same pair set, so merged results stay
  /// correct throughout.
  ///
  /// Unsharded and sharded alike: per-pair PruneFrequentTopologies scans
  /// fan out over the worker pool (they are independent per pair), and the
  /// new epoch's TID hash indexes are pre-built before the swap so the
  /// first post-swap queries pay nothing.
  Result<RebuildStats> Rebuild(const RebuildOptions& options);

  /// --- Incremental updates -------------------------------------------------

  /// Enables ApplyMutations: constructs a MutationEngine over the live
  /// store (every shard handle when sharded; the AttachLiveStore handle
  /// otherwise — call AttachLiveStore first). `log` (not owned, may be
  /// null) makes applies durable: each accepted batch is fsync'd to the
  /// WAL before its overlay epoch becomes visible. Also starts the
  /// engine's background compaction lane, so the overlay chain folds once
  /// `options.compaction_min_generations` accumulate.
  Status EnableMutations(mutation::MutationEngine::Options options,
                         mutation::DeltaLog* log = nullptr);

  /// Applies one mutation batch through the mutation engine — WAL append,
  /// overlay re-stage of the dirtied pairs, store swap — then evicts
  /// exactly the dirtied pairs' cached results (per-pair generation bump;
  /// clean pairs' entries survive). Serialized against Rebuild; queries
  /// keep flowing off snapshots throughout.
  Result<mutation::ApplyStats> ApplyMutations(
      const mutation::MutationBatch& batch);

  /// The mutation engine (compaction control, status, metrics source);
  /// null until EnableMutations.
  mutation::MutationEngine* mutation_engine() {
    return mutation_engine_.get();
  }

  /// --- The wire surface ----------------------------------------------------

  /// Submits one wire request. The sink receives exactly one terminal
  /// frame (kResponse, stream_id 0) — on the calling thread for cache
  /// hits and admission failures, on a pool worker otherwise. The sink
  /// must stay alive until that frame arrives; Shutdown() delivers every
  /// admitted request's frame before returning, so a sink that outlives
  /// the service is always safe.
  void Submit(const wire::WireRequest& request, wire::StreamSink& sink);

  /// Submits a batch as one stream: the sink receives one kResponse frame
  /// per request in completion order (request ids echo the WireRequest
  /// ids), then exactly one kStreamEnd frame — also under cancellation
  /// and shutdown. Returns the stream id (non-zero) for CancelStream. An
  /// empty batch delivers just the kStreamEnd frame, on this thread.
  uint64_t SubmitStream(std::vector<wire::WireRequest> requests,
                        wire::StreamSink& sink);

  /// Cancels a stream's not-yet-executing requests: each still-queued
  /// request completes with a kCancelled error frame; requests already
  /// executing finish normally. The kStreamEnd frame still arrives exactly
  /// once. Returns false when the stream already ended (or never existed).
  bool CancelStream(uint64_t stream_id);

  /// --- Legacy adapters over the wire surface -------------------------------

  /// Asynchronous submission (interactive class, no deadline). The
  /// returned future is always valid: errors (rejection, shutdown, engine
  /// failure) surface in the response.
  std::future<ServiceResponse> Submit(
      const engine::TopologyQuery& query, engine::MethodKind method,
      const engine::ExecOptions& options = engine::ExecOptions{});

  /// Parses a request line (see RequestParser) and submits it. Parse
  /// errors come back as an immediately-ready errored response.
  std::future<ServiceResponse> SubmitLine(const std::string& line);

  /// Synchronous convenience wrapper around Submit.
  ServiceResponse Execute(
      const engine::TopologyQuery& query, engine::MethodKind method,
      const engine::ExecOptions& options = engine::ExecOptions{});

  /// Runs all requests on the pool and waits for completion. The batch is
  /// admitted as one unit in the batch class (it bypasses the class bound
  /// but counts toward it, throttling concurrent batches). Delegates to
  /// ExecuteBatchAsync.
  BatchOutcome ExecuteBatch(const std::vector<ParsedRequest>& requests);

  /// Asynchronous batch: returns immediately; `callback` fires once with
  /// the complete outcome (responses in input order) when the last request
  /// finishes. Same admission semantics as ExecuteBatch. The callback runs
  /// on a pool worker — keep it light and never call blocking service
  /// methods from it.
  void ExecuteBatchAsync(std::vector<ParsedRequest> requests,
                         BatchCallback callback);

  /// 3-query submission (requires EnableTripleQueries or AttachLiveStore).
  /// Runs concurrently with 2-queries: interning into the shared catalog
  /// is thread-safe, so triples no longer exclude other traffic.
  std::future<TripleResponse> SubmitTriple(const engine::TripleQuery& query);

  /// Drops all cached results. Rebuild() folds this into its swap; call it
  /// manually only after out-of-band table mutations.
  void InvalidateCache();

  /// Stops accepting work, drains queued requests (their frames are
  /// delivered), joins workers. Idempotent; the destructor calls it.
  void Shutdown();

  MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }
  QueryCache::Stats CacheStats() const { return cache_.GetStats(); }
  /// The service's tracer (sampling knob, recent traces). Thread-safe;
  /// set_sample_every takes effect for subsequent submissions.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  obs::SlowQueryLog& slow_query_log() { return slow_log_; }
  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }
  /// This service's metrics as a registry source (register it with an
  /// obs::MetricsRegistry for Prometheus/JSON export).
  const obs::MetricsSource& metrics_source() const { return metrics_; }
  const RequestParser& parser() const { return parser_; }
  size_t num_threads() const { return pool_.num_threads(); }
  size_t InFlight() const { return in_flight_.load(); }
  /// Queued + executing requests of one admission class.
  size_t ClassInFlight(wire::Priority priority) const {
    return class_in_flight_[static_cast<size_t>(priority)].load();
  }

  /// True when this service scatter-gathers over a sharded store.
  bool sharded() const { return sharded_exec_ != nullptr; }

 private:
  /// Shared state of one response stream (a single Submit is a stream of
  /// one with no end frame). Frames are delivered under sink_mu, so sink
  /// calls never overlap for one stream.
  struct StreamState {
    uint64_t id = 0;  // 0 for single submits (not cancellable).
    wire::StreamSink* sink = nullptr;
    /// Keeps adapter-owned sinks (promise/batch) alive until the stream
    /// ends; user-provided sinks are non-owned.
    std::shared_ptr<wire::StreamSink> owned_sink;
    std::mutex sink_mu;
    size_t open = 0;  // Responses not yet delivered; guarded by sink_mu.
    bool send_end = false;
    std::atomic<bool> cancelled{false};
  };

  /// One admitted request waiting in its class queue.
  struct QueuedItem {
    wire::WireRequest req;
    std::shared_ptr<StreamState> stream;
    std::string fingerprint;
    Stopwatch watch;  // Started at submission (deadline + latency basis).
    std::shared_ptr<obs::QueryTrace> trace;  // Null when unsampled.
  };

  /// Core submission path: cache fast path, per-class admission, enqueue +
  /// drain token. `bypass_admission` admits regardless of the class bound
  /// (legacy whole-batch admission).
  void SubmitToStream(wire::WireRequest request,
                      const std::shared_ptr<StreamState>& stream,
                      bool bypass_admission);

  uint64_t SubmitStreamInternal(std::vector<wire::WireRequest> requests,
                                wire::StreamSink* sink,
                                std::shared_ptr<wire::StreamSink> owned,
                                bool bypass_admission);

  /// Pool token body: pops the highest-priority queued item and completes
  /// it — executes it, or sheds it (deadline passed, stream cancelled, or
  /// `shed_code` forced by a shutdown race). `ignore_batch_cap` is the
  /// Shutdown flush mode: with no workers left the cap serves no purpose,
  /// and honoring it would make concurrent flush loops busy-spin.
  void DrainOne(std::optional<wire::WireErrorCode> forced_shed =
                    std::nullopt,
                bool ignore_batch_cap = false);

  /// Delivers one frame under the stream's sink lock, emitting the
  /// kStreamEnd frame and unregistering the stream when it completes.
  void DeliverFrame(const std::shared_ptr<StreamState>& stream,
                    wire::WireFrame frame);
  void DeliverResponse(const std::shared_ptr<StreamState>& stream,
                       wire::WireResponse response);
  void DeliverError(const std::shared_ptr<StreamState>& stream,
                    uint64_t request_id, wire::WireErrorCode code,
                    std::string message);

  static wire::WireResponse ToWire(uint64_t request_id,
                                   ServiceResponse response);
  static ServiceResponse FromWire(const wire::WireResponse& response);

  ServiceResponse RunQuery(const engine::TopologyQuery& query,
                           engine::MethodKind method,
                           const engine::ExecOptions& options,
                           std::shared_ptr<const engine::QueryResult> cached,
                           std::string fingerprint, Stopwatch watch,
                           const std::shared_ptr<obs::QueryTrace>& trace,
                           double queue_seconds);

  /// Finishes a sampled query's trace and applies the slow-query
  /// threshold (both no-ops when disabled).
  void FinishQueryObservation(const engine::TopologyQuery& query,
                              engine::MethodKind method,
                              const engine::ExecOptions& options,
                              const ServiceResponse& response,
                              const std::shared_ptr<obs::QueryTrace>& trace,
                              double queue_seconds);

  /// Engine dispatch: scatter-gather when sharded, else the single engine.
  Result<engine::QueryResult> Evaluate(
      const engine::TopologyQuery& query, engine::MethodKind method,
      const engine::ExecOptions& options,
      const std::shared_ptr<obs::QueryTrace>& trace) const;

  Result<RebuildStats> RebuildSharded(const RebuildOptions& options);

  /// Fans per-pair PruneFrequentTopologies over the pool for every store
  /// in `stores` (all still private to the rebuild). Adds to *seconds.
  Status ParallelPrune(const std::vector<core::TopologyStore*>& stores,
                       size_t threshold, double* seconds);

  /// Pre-builds the TID hash indexes of every precompute table in `stores`
  /// on the pool, so the first post-swap queries find them warm.
  void WarmIndexes(const std::vector<core::TopologyStore*>& stores,
                   double* seconds);

  /// Cache keys carry the store epoch: a query that pinned a pre-swap
  /// snapshot can finish (and Insert) after Rebuild's cache clear, but its
  /// stale result lands under the retired epoch's key, which no post-swap
  /// lookup ever reads.
  std::string EpochFingerprint(std::string fingerprint) const;

  /// The mutation-aware key prefix: "r<rebuild>|p<t1>_<t2>g<gen>|", where
  /// <gen> is the pair's mutation generation. A mutation bumps the
  /// generations of exactly the pairs it dirtied, so their cached entries
  /// become unreachable (and are reclaimed with EvictByPrefix) while every
  /// clean pair's entries keep hitting. Unresolvable queries stamp "p?"
  /// (they never produce cacheable results anyway).
  std::string PairStamp(const engine::TopologyQuery& query) const;
  std::string PairPrefix(const mutation::TypePair& pair,
                         uint64_t generation) const;

  /// Per-pair generation bump + targeted eviction for a batch's dirty
  /// pairs (3-query results may span any pair set, so the triple cache is
  /// cleared wholesale).
  void EvictMutatedPairs(const mutation::DirtyPairs& dirty);

  /// Rebuild epilogue: new rebuild generation, per-pair generations reset.
  void BumpRebuildGeneration();

  /// The store 3-queries run against: the live epoch when attached via
  /// AttachLiveStore, else the fixed EnableTripleQueries store (wrapped
  /// non-owning). Null when neither was called.
  std::shared_ptr<core::TopologyStore> TripleBackend() const;

  template <typename Response>
  static std::future<Response> Ready(Response response) {
    std::promise<Response> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
  }

  /// Exactly one of engine_ / sharded_exec_ is set (by the two ctors).
  const engine::Engine* engine_;
  shard::ScatterGatherExecutor* sharded_exec_ = nullptr;
  storage::Catalog* db_;
  ServiceConfig config_;
  RequestParser parser_;
  QueryCache cache_;
  TripleQueryCache triple_cache_;
  ServiceMetrics metrics_;
  obs::Tracer tracer_;
  obs::SlowQueryLog slow_log_;
  ThreadPool pool_;

  /// Per-class admission queues: workers always drain interactive before
  /// batch. Drain tokens on the pool equal queued items; a token finding
  /// only over-cap batch work retires (stalled_batch_tokens_) and the next
  /// finishing batch request funds its replacement — queue_mu_ serializes
  /// the stall/refund decision so no item is ever stranded. Shutdown()
  /// flushes whatever the retired tokens left behind.
  std::mutex queue_mu_;
  std::deque<QueuedItem> queues_[wire::kNumPriorities];
  std::atomic<size_t> class_in_flight_[wire::kNumPriorities] = {};
  /// Batch requests currently executing / drain tokens retired at the
  /// batch concurrency cap. Both guarded by queue_mu_.
  size_t batch_executing_ = 0;
  size_t stalled_batch_tokens_ = 0;

  /// Active (not yet ended) cancellable streams.
  std::mutex streams_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<StreamState>> streams_;
  std::atomic<uint64_t> next_stream_id_{1};

  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> accepting_{true};

  /// Triple-query backend (null until EnableTripleQueries/AttachLiveStore).
  core::TopologyStore* triple_store_ = nullptr;
  const graph::SchemaGraph* triple_schema_ = nullptr;
  const graph::DataGraphView* triple_view_ = nullptr;

  /// Live-rebuild state (null until AttachLiveStore).
  std::shared_ptr<core::StoreHandle> live_handle_;
  /// Serializes Rebuild() and ApplyMutations() — the two store writers —
  /// against each other; never taken on the query path.
  std::mutex rebuild_mu_;

  /// Incremental-update state (null until EnableMutations).
  std::unique_ptr<mutation::MutationEngine> mutation_engine_;
  mutation::DeltaLog* mutation_log_ = nullptr;
  /// Full-rebuild generation in every cache key: Rebuild bumps it (and
  /// resets the per-pair generations), so mutation-era prefixes can never
  /// collide across rebuild epochs.
  std::atomic<uint64_t> rebuild_gen_{0};
  mutable std::mutex pair_gen_mu_;
  std::map<mutation::TypePair, uint64_t> pair_gens_;
};

}  // namespace service
}  // namespace tsb

#endif  // TSB_SERVICE_SERVICE_H_
