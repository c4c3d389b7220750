#include "service/service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/pruner.h"

namespace tsb {
namespace service {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

/// The configured budget covers both caches: 2-query results get the
/// lion's share, 3-query results (rarer, bulkier per entry) an eighth.
service::QueryCacheConfig MainCacheConfig(service::QueryCacheConfig cache) {
  cache.max_bytes -= cache.max_bytes / 8;
  return cache;
}

service::QueryCacheConfig TripleCacheConfig(service::QueryCacheConfig cache) {
  cache.max_bytes /= 8;
  return cache;
}

}  // namespace

double RebuildStats::ShardSkew() const {
  return shard::ShardRowSkew(shard_rows);
}

TopologyService::TopologyService(const engine::Engine* engine,
                                 storage::Catalog* db, ServiceConfig config)
    : engine_(engine),
      db_(db),
      config_(config),
      parser_(db),
      cache_(MainCacheConfig(config.cache)),
      triple_cache_(TripleCacheConfig(config.cache)),
      tracer_(config.trace),
      slow_log_(config.slow_query),
      pool_(ResolveThreads(config.num_threads)) {
  TSB_CHECK(engine_ != nullptr);
  TSB_CHECK(db_ != nullptr);
}

TopologyService::TopologyService(shard::ScatterGatherExecutor* executor,
                                 storage::Catalog* db, ServiceConfig config)
    : engine_(nullptr),
      sharded_exec_(executor),
      db_(db),
      config_(config),
      parser_(db),
      cache_(MainCacheConfig(config.cache)),
      triple_cache_(TripleCacheConfig(config.cache)),
      tracer_(config.trace),
      slow_log_(config.slow_query),
      pool_(ResolveThreads(config.num_threads)) {
  TSB_CHECK(sharded_exec_ != nullptr);
  TSB_CHECK(db_ != nullptr);
  // 3-queries and rebuilds flow through the executor's shard handles.
  triple_schema_ = sharded_exec_->schema();
  triple_view_ = sharded_exec_->view();
  // Seed the shard-skew observables from the serving shard set.
  std::vector<std::shared_ptr<core::TopologyStore>> snapshots =
      sharded_exec_->store().SnapshotAll();
  std::vector<const core::TopologyStore*> raw;
  raw.reserve(snapshots.size());
  for (const std::shared_ptr<core::TopologyStore>& s : snapshots) {
    raw.push_back(s.get());
  }
  metrics_.SetShardRows(shard::ShardAllTopsRowCounts(*db_, raw));
}

TopologyService::~TopologyService() { Shutdown(); }

void TopologyService::EnableTripleQueries(core::TopologyStore* store,
                                          const graph::SchemaGraph* schema,
                                          const graph::DataGraphView* view) {
  // Sharded services already route 3-queries (and rebuilds) through the
  // executor's shard handles; overriding the schema/view here would stage
  // rebuilds from a different graph than the engines query.
  TSB_CHECK(!sharded())
      << "EnableTripleQueries is for unsharded services; the sharded "
         "constructor wires 3-queries through the scatter executor";
  triple_store_ = store;
  triple_schema_ = schema;
  triple_view_ = view;
}

Status TopologyService::AttachLiveStore(const graph::SchemaGraph* schema,
                                        const graph::DataGraphView* view) {
  if (sharded()) {
    return Status::FailedPrecondition(
        "sharded services are live already: the scatter executor's shard "
        "handles serve 3-queries and rebuilds");
  }
  if (!engine_->store_is_swappable()) {
    return Status::FailedPrecondition(
        "live rebuilds need an engine constructed over a shared_ptr "
        "StoreHandle; the raw-pointer Engine constructor wraps a "
        "caller-owned store that cannot be retired safely");
  }
  live_handle_ = engine_->store_handle();
  TSB_CHECK(live_handle_ != nullptr);
  triple_schema_ = schema;
  triple_view_ = view;
  return Status::OK();
}

std::string TopologyService::EpochFingerprint(std::string fingerprint) const {
  // Shard-aware keys: the per-shard epoch stamp replaces the single epoch,
  // so rolling any one shard forward orphans cached results derived from
  // its retired slice (a late Insert from an in-flight pre-roll query
  // lands under the old stamp, which no post-roll lookup reads). Only the
  // 3-query path keys on epochs now — 2-queries key on PairStamp, whose
  // rebuild/pair generations invalidate selectively across mutation swaps.
  if (sharded()) {
    return sharded_exec_->store().EpochStamp() + "|" +
           std::move(fingerprint);
  }
  return "e" + std::to_string(engine_->store_handle()->epoch()) + "|" +
         std::move(fingerprint);
}

std::string TopologyService::PairPrefix(const mutation::TypePair& pair,
                                        uint64_t generation) const {
  return "r" + std::to_string(rebuild_gen_.load(std::memory_order_relaxed)) +
         "|p" + std::to_string(pair.first) + "_" +
         std::to_string(pair.second) + "g" + std::to_string(generation) +
         "|";
}

std::string TopologyService::PairStamp(
    const engine::TopologyQuery& query) const {
  const storage::EntitySetDef* e1 = db_->FindEntitySet(query.entity_set1);
  const storage::EntitySetDef* e2 = db_->FindEntitySet(query.entity_set2);
  if (e1 == nullptr || e2 == nullptr) {
    return "r" +
           std::to_string(rebuild_gen_.load(std::memory_order_relaxed)) +
           "|p?|";
  }
  mutation::TypePair pair{std::min(e1->id, e2->id),
                          std::max(e1->id, e2->id)};
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(pair_gen_mu_);
    auto it = pair_gens_.find(pair);
    if (it != pair_gens_.end()) generation = it->second;
  }
  return PairPrefix(pair, generation);
}

void TopologyService::BumpRebuildGeneration() {
  rebuild_gen_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(pair_gen_mu_);
  pair_gens_.clear();
}

void TopologyService::EvictMutatedPairs(const mutation::DirtyPairs& dirty) {
  std::lock_guard<std::mutex> lock(pair_gen_mu_);
  for (const std::vector<mutation::TypePair>* pairs :
       {&dirty.structural, &dirty.cache_only}) {
    for (const mutation::TypePair& pair : *pairs) {
      const uint64_t old_gen = pair_gens_[pair]++;
      cache_.EvictByPrefix(PairPrefix(pair, old_gen));
    }
  }
  if (dirty.total() > 0) triple_cache_.Clear();
}

Status TopologyService::EnableMutations(
    mutation::MutationEngine::Options options, mutation::DeltaLog* log) {
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  if (mutation_engine_ != nullptr) {
    return Status::FailedPrecondition("mutations already enabled");
  }
  std::vector<std::shared_ptr<core::StoreHandle>> handles;
  const graph::SchemaGraph* schema = nullptr;
  if (sharded()) {
    shard::ShardedTopologyStore* sstore = sharded_exec_->mutable_store();
    for (size_t i = 0; i < sstore->num_shards(); ++i) {
      handles.push_back(sstore->handle(i));
    }
    schema = sharded_exec_->schema();
  } else {
    if (live_handle_ == nullptr) {
      return Status::FailedPrecondition(
          "mutations need a live store; call AttachLiveStore first");
    }
    handles.push_back(live_handle_);
    schema = triple_schema_;
  }
  mutation_engine_ = std::make_unique<mutation::MutationEngine>(
      db_, schema, std::move(handles), std::move(options));
  mutation_engine_->set_delta_log(log);
  mutation_log_ = log;
  // Without the lane every apply adds one overlay generation and nothing
  // ever folds them.
  mutation_engine_->StartCompaction();
  return Status::OK();
}

Result<mutation::ApplyStats> TopologyService::ApplyMutations(
    const mutation::MutationBatch& batch) {
  if (mutation_engine_ == nullptr) {
    return Status::FailedPrecondition(
        "mutations not enabled; call EnableMutations first");
  }
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  auto stats = mutation_log_ != nullptr ? mutation_engine_->ApplyLogged(batch)
                                        : mutation_engine_->Apply(batch);
  if (!stats.ok()) return stats;
  EvictMutatedPairs(stats.value().dirty);
  return stats;
}

Result<engine::QueryResult> TopologyService::Evaluate(
    const engine::TopologyQuery& query, engine::MethodKind method,
    const engine::ExecOptions& options,
    const std::shared_ptr<obs::QueryTrace>& trace) const {
  if (sharded()) {
    return sharded_exec_->Execute(query, method, options, trace);
  }
  return engine_->Execute(query, method, options);
}

std::shared_ptr<core::TopologyStore> TopologyService::TripleBackend() const {
  if (live_handle_ != nullptr) return live_handle_->Snapshot();
  if (triple_store_ != nullptr) {
    // Fixed backend: non-owning, the caller guarantees lifetime.
    return std::shared_ptr<core::TopologyStore>(triple_store_,
                                                [](core::TopologyStore*) {});
  }
  return nullptr;
}

Status TopologyService::ParallelPrune(
    const std::vector<core::TopologyStore*>& stores, size_t threshold,
    double* seconds) {
  Stopwatch watch;
  core::PruneConfig prune;
  prune.frequency_threshold = threshold;

  // Per-pair scans are independent (distinct PairTopologyData, distinct
  // created tables, read-only store registry), so they fan out over the
  // pool instead of serializing on the commit thread. The stores are still
  // private to the rebuild — no query can observe a half-pruned pair.
  std::vector<std::future<Status>> futures;
  for (core::TopologyStore* store : stores) {
    for (const auto& [key, pair] : store->pairs()) {
      const auto [t1, t2] = key;
      storage::Catalog* db = db_;
      auto task = [db, store, t1, t2, prune]() {
        return core::PruneFrequentTopologies(db, store, t1, t2, prune)
            .status();
      };
      std::future<Status> future = pool_.Submit(task);
      if (!future.valid()) {
        // Pool raced with shutdown: prune inline so the rebuild finishes.
        std::promise<Status> ready;
        ready.set_value(task());
        future = ready.get_future();
      }
      futures.push_back(std::move(future));
    }
  }
  Status status = Status::OK();
  for (std::future<Status>& future : futures) {
    Status pruned = future.get();  // Drain all even on error.
    if (status.ok() && !pruned.ok()) status = pruned;
  }
  *seconds += watch.ElapsedSeconds();
  return status;
}

void TopologyService::WarmIndexes(
    const std::vector<core::TopologyStore*>& stores, double* seconds) {
  Stopwatch watch;
  // The plans probe the TID indexes of the topology tables (entity-table
  // ID indexes survive epochs — those are already warm). Building them
  // here, before the swap, means the first post-swap query pays nothing.
  std::vector<std::future<void>> futures;
  auto warm_table = [this, &futures](const std::string& table) {
    storage::Catalog* db = db_;
    auto task = [db, table]() { db->GetOrBuildHashIndex(table, "TID"); };
    std::future<void> future = pool_.Submit(task);
    if (future.valid()) {
      futures.push_back(std::move(future));
    } else {
      task();
    }
  };
  for (core::TopologyStore* store : stores) {
    for (const auto& [key, pair] : store->pairs()) {
      warm_table(pair.alltops_table);
      if (pair.pruned) {
        warm_table(pair.lefttops_table);
        warm_table(pair.excptops_table);
      }
    }
  }
  for (std::future<void>& future : futures) future.get();
  *seconds += watch.ElapsedSeconds();
}

Result<RebuildStats> TopologyService::Rebuild(const RebuildOptions& options) {
  if (sharded()) return RebuildSharded(options);
  if (live_handle_ == nullptr) {
    return Status::FailedPrecondition(
        "live rebuild needs a StoreHandle-backed engine; call "
        "AttachLiveStore first");
  }
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);

  RebuildStats stats;
  stats.epoch = live_handle_->epoch() + 1;
  stats.table_namespace = "e" + std::to_string(stats.epoch) + ".";

  core::BuildConfig build = options.build;
  build.table_namespace = stats.table_namespace;

  // Stage the new epoch on the worker pool, behind live traffic. Stage
  // tasks share the pool with queries; commits run on this thread.
  auto next = std::make_shared<core::TopologyStore>();
  core::TopologyBuilder builder(db_, triple_schema_, triple_view_);
  auto drop_staged_tables = [&]() {
    for (const std::string& name : next->PrecomputeTableNames()) {
      (void)db_->DropTable(name);
    }
  };
  Stopwatch build_watch;
  Status built = builder.BuildAllPairs(build, next.get(), &pool_);
  stats.build_seconds = build_watch.ElapsedSeconds();
  if (!built.ok()) {
    drop_staged_tables();
    return built;
  }

  if (options.prune_threshold.has_value()) {
    Status pruned = ParallelPrune({next.get()}, *options.prune_threshold,
                                  &stats.prune_seconds);
    if (!pruned.ok()) {
      drop_staged_tables();
      return pruned;
    }
  }
  WarmIndexes({next.get()}, &stats.index_seconds);

  stats.pairs_built = next->pairs().size();
  stats.catalog_topologies = next->catalog().size();

  // Export before the swap, while `next` is still private: once it is
  // live, concurrent 3-queries intern into its catalog, and
  // ExportTopInfoTable's infos() iteration must not race that.
  if (options.export_topinfo) {
    next->ExportTopInfoTable(db_, *triple_schema_);
  }

  // Publish the new epoch, then drop the caches in the same step (cached
  // entries derive from the retired epoch's tables). The retired store
  // keeps its tables alive until the last in-flight snapshot releases it;
  // its destructor then drops them from the storage catalog.
  std::shared_ptr<core::TopologyStore> retired = live_handle_->Swap(next);
  std::vector<std::string> retired_tables = retired->PrecomputeTableNames();
  storage::Catalog* db = db_;
  // add_cleanup, not set_cleanup: a retired mutation overlay already has a
  // hook chaining down to the epoch base store, and this drop list covers
  // every table the chain still exposes (re-drops of the overlay's own
  // tables fail harmlessly).
  retired->add_cleanup([db, retired_tables]() {
    for (const std::string& name : retired_tables) {
      (void)db->DropTable(name);
    }
  });
  retired.reset();
  BumpRebuildGeneration();
  InvalidateCache();
  return stats;
}

Result<RebuildStats> TopologyService::RebuildSharded(
    const RebuildOptions& options) {
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  shard::ShardedTopologyStore* sstore = sharded_exec_->mutable_store();
  const size_t num_shards = sstore->num_shards();

  RebuildStats stats;
  stats.epoch = sstore->handle(0)->epoch() + 1;
  stats.table_namespace = "e" + std::to_string(stats.epoch) + ".";

  core::BuildConfig build = options.build;
  build.table_namespace = stats.table_namespace;

  // Stage a complete replacement shard set, privately, on the worker pool
  // (tables land under "e<N>.s<i>." per shard — next to, never touching,
  // the serving epoch's).
  std::vector<std::shared_ptr<core::TopologyStore>> next(num_shards);
  std::vector<core::TopologyStore*> raw(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    next[i] = std::make_shared<core::TopologyStore>();
    raw[i] = next[i].get();
  }
  // Stage from the same schema/view the executor's engines query.
  core::TopologyBuilder builder(db_, sharded_exec_->schema(),
                                sharded_exec_->view());
  auto drop_staged_tables = [&]() {
    for (const std::shared_ptr<core::TopologyStore>& store : next) {
      for (const std::string& name : store->PrecomputeTableNames()) {
        (void)db_->DropTable(name);
      }
    }
  };
  Stopwatch build_watch;
  Status built = builder.BuildAllPairs(build, raw, &pool_);
  stats.build_seconds = build_watch.ElapsedSeconds();
  if (!built.ok()) {
    drop_staged_tables();
    return built;
  }

  if (options.prune_threshold.has_value()) {
    Status pruned =
        ParallelPrune(raw, *options.prune_threshold, &stats.prune_seconds);
    if (!pruned.ok()) {
      drop_staged_tables();
      return pruned;
    }
  }
  WarmIndexes(raw, &stats.index_seconds);

  stats.pairs_built = next[0]->pairs().size();
  stats.catalog_topologies = next[0]->catalog().size();
  {
    std::vector<const core::TopologyStore*> raw_const(raw.begin(),
                                                      raw.end());
    stats.shard_rows = shard::ShardAllTopsRowCounts(*db_, raw_const);
  }

  // Primary replica feeds the export, pre-swap (see unsharded comment).
  if (options.export_topinfo) {
    next[0]->ExportTopInfoTable(db_, *sharded_exec_->schema());
  }

  // Roll the shards independently: one epoch swap per shard, each retiring
  // its predecessor when the last in-flight sub-query releases it. Queries
  // scattering mid-roll see a mix of old and new shard snapshots: with
  // unchanged build options both epochs rank identically, so merged
  // results stay byte-identical throughout; if the rebuild changed
  // scoring-relevant options (deeper l, different prune threshold),
  // mid-roll rankings may transiently mix epochs — the merge's TID-keyed
  // collapse still returns each topology exactly once, and the next
  // scatter after the roll completes is fully on the new epoch.
  for (size_t i = 0; i < num_shards; ++i) {
    std::shared_ptr<core::TopologyStore> retired =
        sstore->SwapShard(i, next[i]);
    std::vector<std::string> retired_tables =
        retired->PrecomputeTableNames();
    storage::Catalog* db = db_;
    // add_cleanup: see the unsharded Rebuild for why (mutation overlays).
    retired->add_cleanup([db, retired_tables]() {
      for (const std::string& name : retired_tables) {
        (void)db->DropTable(name);
      }
    });
    retired.reset();
    ++stats.shards_swapped;
  }
  BumpRebuildGeneration();
  InvalidateCache();
  // Refresh the skew observables for the new epoch.
  metrics_.SetShardRows(stats.shard_rows);
  return stats;
}

ServiceResponse TopologyService::RunQuery(
    const engine::TopologyQuery& query, engine::MethodKind method,
    const engine::ExecOptions& options,
    std::shared_ptr<const engine::QueryResult> cached,
    std::string fingerprint, Stopwatch watch,
    const std::shared_ptr<obs::QueryTrace>& trace, double queue_seconds) {
  if (cached != nullptr) {
    ServiceResponse response{*cached, /*from_cache=*/true,
                             watch.ElapsedSeconds()};
    metrics_.RecordRequest(ServiceMetrics::SlotOf(method),
                           response.service_seconds, /*cache_hit=*/true,
                           /*ok=*/true);
    if (trace != nullptr) {
      trace->AddSpan("cache.lookup", trace->root_span_id(),
                     obs::UnixSeconds(), response.service_seconds, "hit=1");
    }
    FinishQueryObservation(query, method, options, response, trace,
                           queue_seconds);
    return response;
  }

  if (trace != nullptr) {
    // Miss spans cost one map probe; recorded only for sampled queries.
    trace->AddSpan("cache.lookup", trace->root_span_id(),
                   obs::UnixSeconds(), 0.0, "hit=0");
  }

  // No service-level lock: Execute pins store snapshots (one per routed
  // shard when sharded) and the catalog interns under its own mutex, so
  // 2-queries, 3-queries, and rebuild staging coexist freely.
  const double exec_start_unix =
      trace != nullptr ? obs::UnixSeconds() : 0.0;
  Stopwatch exec_watch;
  Result<engine::QueryResult> result =
      Evaluate(query, method, options, trace);
  const bool ok = result.ok();
  if (trace != nullptr) {
    std::string tags =
        ok ? wire::ExecStatsTraceTags(result->stats)
           : "ok=0,error=" + obs::TagValueSafe(result.status().message());
    trace->AddSpan("execute", trace->root_span_id(), exec_start_unix,
                   exec_watch.ElapsedSeconds(), std::move(tags),
                   ok ? result->stats.cpu_ns : 0);
  }
  if (ok) {
    metrics_.RecordScanStats(result->stats.rows_scanned,
                             result->stats.blocks_total,
                             result->stats.blocks_skipped);
    obs::CostCounters cost;
    cost.cpu_ns = result->stats.cpu_ns;
    cost.bytes_deserialized = result->stats.bytes_deserialized;
    cost.catalog_interns = result->stats.catalog_interns;
    cost.heap_bytes = result->stats.heap_bytes;
    metrics_.RecordCost(ServiceMetrics::SlotOf(method), cost);
  }
  // Degraded answers (a shard failed or timed out; partial=true) are
  // never cached: the blip is transient, but a cached partial would keep
  // serving the incomplete ranking until the next epoch swap.
  if (ok && !result->partial && config_.enable_cache) {
    cache_.Insert(fingerprint,
                  std::make_shared<engine::QueryResult>(*result));
  }
  ServiceResponse response{std::move(result), /*from_cache=*/false,
                           watch.ElapsedSeconds()};
  metrics_.RecordRequest(ServiceMetrics::SlotOf(method),
                         response.service_seconds, /*cache_hit=*/false, ok);
  FinishQueryObservation(query, method, options, response, trace,
                         queue_seconds);
  return response;
}

void TopologyService::FinishQueryObservation(
    const engine::TopologyQuery& query, engine::MethodKind method,
    const engine::ExecOptions& options, const ServiceResponse& response,
    const std::shared_ptr<obs::QueryTrace>& trace, double queue_seconds) {
  if (trace != nullptr) {
    trace->Finish(response.service_seconds);
    tracer_.Record(trace);
  }
  if (!slow_log_.enabled() ||
      response.service_seconds < slow_log_.threshold_seconds()) {
    return;
  }
  obs::SlowQueryRecord record;
  record.unix_seconds = obs::UnixSeconds();
  record.service_seconds = response.service_seconds;
  record.queue_seconds = queue_seconds;
  ParsedRequest parsed;
  parsed.query = query;
  parsed.method = method;
  parsed.options = options;
  Result<std::string> line = RequestParser::Format(parsed);
  record.request = line.ok() ? std::move(*line)
                             : query.entity_set1 + " / " + query.entity_set2;
  record.method = engine::MethodKindToString(method);
  record.from_cache = response.from_cache;
  record.ok = response.result.ok();
  if (record.ok) {
    const engine::ExecStats& stats = response.result->stats;
    record.plan = stats.plan;
    record.rows_scanned = stats.rows_scanned;
    record.rows_out = stats.rows_out;
    record.blocks_total = stats.blocks_total;
    record.blocks_skipped = stats.blocks_skipped;
    record.cpu_ns = stats.cpu_ns;
    record.bytes_deserialized = stats.bytes_deserialized;
    record.heap_bytes = stats.heap_bytes;
  }
  if (trace != nullptr) {
    record.trace_id = trace->trace_id();
    record.span_tree = obs::FormatSpanTree(trace->Spans());
  }
  slow_log_.Record(std::move(record));
}

/// --- The wire surface ------------------------------------------------------

wire::WireResponse TopologyService::ToWire(uint64_t request_id,
                                           ServiceResponse response) {
  wire::WireResponse out;
  out.request_id = request_id;
  out.from_cache = response.from_cache;
  out.service_seconds = response.service_seconds;
  if (response.result.ok()) {
    out.result = std::move(*response.result);
  } else {
    out.error = wire::WireErrorFromStatus(response.result.status());
  }
  return out;
}

ServiceResponse TopologyService::FromWire(
    const wire::WireResponse& response) {
  if (response.error.ok()) {
    return ServiceResponse{response.result, response.from_cache,
                           response.service_seconds};
  }
  return ServiceResponse{wire::StatusFromWireError(response.error),
                         response.from_cache, response.service_seconds};
}

void TopologyService::DeliverFrame(
    const std::shared_ptr<StreamState>& stream, wire::WireFrame frame) {
  std::lock_guard<std::mutex> lock(stream->sink_mu);
  stream->sink->OnFrame(frame);
  if (frame.kind != wire::FrameKind::kResponse) return;
  TSB_CHECK_GT(stream->open, 0u);
  if (--stream->open > 0) return;
  // Unregister BEFORE the end frame goes out, so a client that saw the
  // end can rely on CancelStream returning false (no finished-but-still-
  // cancellable window). Lock order sink_mu -> streams_mu_ is unique to
  // this path; CancelStream takes streams_mu_ alone.
  if (stream->id != 0) {
    std::lock_guard<std::mutex> streams_lock(streams_mu_);
    streams_.erase(stream->id);
  }
  if (stream->send_end) {
    wire::WireFrame end;
    end.kind = wire::FrameKind::kStreamEnd;
    end.stream_id = stream->id;
    stream->sink->OnFrame(end);
  }
}

void TopologyService::DeliverResponse(
    const std::shared_ptr<StreamState>& stream,
    wire::WireResponse response) {
  wire::WireFrame frame;
  frame.kind = wire::FrameKind::kResponse;
  frame.stream_id = stream->id;
  frame.response = std::move(response);
  DeliverFrame(stream, std::move(frame));
}

void TopologyService::DeliverError(
    const std::shared_ptr<StreamState>& stream, uint64_t request_id,
    wire::WireErrorCode code, std::string message) {
  wire::WireResponse response;
  response.request_id = request_id;
  response.error = wire::WireError{code, std::move(message)};
  DeliverResponse(stream, std::move(response));
}

void TopologyService::SubmitToStream(
    wire::WireRequest request, const std::shared_ptr<StreamState>& stream,
    bool bypass_admission) {
  Stopwatch watch;
  if (!accepting_.load(std::memory_order_acquire)) {
    DeliverError(stream, request.id, wire::WireErrorCode::kShuttingDown,
                 "service is shut down");
    return;
  }

  // No epoch component here: mutation overlays swap the store on every
  // batch, and an epoch-keyed entry would miss after a swap even for pairs
  // the batch never touched. The PairStamp's rebuild generation (bumped
  // before Rebuild's cache clear) orphans late inserts from in-flight
  // pre-rebuild queries, and its per-pair generation does the same for
  // mutated pairs — so clean-pair entries survive mutation swaps.
  std::string fingerprint =
      PairStamp(request.query) +
      FingerprintQuery(request.query, request.method, request.options);

  // Sampling decision up front so the cache fast path is traced too. A
  // request arriving with an active trace context (a traced upstream)
  // is always traced and joins the upstream's trace.
  std::shared_ptr<obs::QueryTrace> trace =
      request.trace.active()
          ? tracer_.StartTrace("service.query", request.trace)
          : tracer_.StartTrace("service.query");

  // Fast path: answer hits on the caller's thread, no pool hop, no
  // admission charge.
  if (config_.enable_cache) {
    if (std::shared_ptr<const engine::QueryResult> hit =
            cache_.Lookup(fingerprint)) {
      ServiceResponse response =
          RunQuery(request.query, request.method, request.options,
                   std::move(hit), std::move(fingerprint), watch, trace,
                   /*queue_seconds=*/0.0);
      DeliverResponse(stream, ToWire(request.id, std::move(response)));
      return;
    }
  }

  // Per-class admission: bound queued + executing work of this class.
  const size_t cls = static_cast<size_t>(request.priority);
  const size_t bound = request.priority == wire::Priority::kInteractive
                           ? config_.max_in_flight
                           : config_.batch_max_in_flight;
  const size_t in_class =
      class_in_flight_[cls].fetch_add(1, std::memory_order_acq_rel);
  if (!bypass_admission && in_class >= bound) {
    class_in_flight_[cls].fetch_sub(1, std::memory_order_acq_rel);
    metrics_.RecordRejected(cls);
    DeliverError(
        stream, request.id, wire::WireErrorCode::kOverloaded,
        "service overloaded: " + std::to_string(in_class) + " " +
            wire::PriorityToString(request.priority) +
            " requests in flight (max " + std::to_string(bound) + ")");
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  metrics_.RecordAdmitted(cls);

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    QueuedItem item;
    item.req = std::move(request);
    item.stream = stream;
    item.fingerprint = std::move(fingerprint);
    item.watch = watch;
    item.trace = std::move(trace);
    queues_[cls].push_back(std::move(item));
  }
  // One drain token per queued item; a worker completes the
  // highest-priority pending item, not necessarily this one.
  std::future<void> token = pool_.Submit([this]() { DrainOne(); });
  if (!token.valid()) {
    // Raced with Shutdown() after the accepting_ gate: complete one
    // queued item (possibly another's) with a shutdown error so every
    // admitted request still gets its terminal frame.
    DrainOne(wire::WireErrorCode::kShuttingDown);
  }
}

void TopologyService::DrainOne(
    std::optional<wire::WireErrorCode> forced_shed, bool ignore_batch_cap) {
  const size_t batch_cls = static_cast<size_t>(wire::Priority::kBatch);
  const size_t batch_cap =
      config_.max_concurrent_batch > 0
          ? config_.max_concurrent_batch
          : std::max<size_t>(1, pool_.num_threads() - 1);
  QueuedItem item;
  bool found = false;
  bool is_batch = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (size_t cls = 0; cls < wire::kNumPriorities && !found; ++cls) {
      if (queues_[cls].empty()) continue;
      if (cls == batch_cls && !forced_shed.has_value() &&
          !ignore_batch_cap && batch_executing_ >= batch_cap) {
        // Over the batch concurrency cap: retire this token; the next
        // finishing batch request funds a replacement (serialized under
        // queue_mu_, so the refund can never miss this stall).
        ++stalled_batch_tokens_;
        return;
      }
      item = std::move(queues_[cls].front());
      queues_[cls].pop_front();
      found = true;
      if (cls == batch_cls) {
        is_batch = true;
        ++batch_executing_;
      }
    }
  }
  if (!found) return;  // Defensive: tokens always match queued items.

  const size_t cls = static_cast<size_t>(item.req.priority);
  const double waited = item.watch.ElapsedSeconds();
  if (forced_shed.has_value()) {
    DeliverError(item.stream, item.req.id, *forced_shed,
                 "service is shut down");
  } else if (item.stream->cancelled.load(std::memory_order_acquire)) {
    metrics_.RecordCancelled(cls);
    DeliverError(item.stream, item.req.id, wire::WireErrorCode::kCancelled,
                 "stream cancelled before execution");
  } else if (item.req.deadline_seconds > 0.0 &&
             waited > item.req.deadline_seconds) {
    // Deadline-based shedding: the request expired in the queue; answering
    // it late helps nobody and steals a worker from live traffic.
    metrics_.RecordDeadlineShed(cls);
    DeliverError(item.stream, item.req.id,
                 wire::WireErrorCode::kDeadlineExceeded,
                 "deadline of " + std::to_string(item.req.deadline_seconds) +
                     "s exceeded after " + std::to_string(waited) +
                     "s in queue");
  } else {
    if (item.trace != nullptr) {
      item.trace->AddSpan(
          "queue.wait", item.trace->root_span_id(),
          obs::UnixSeconds() - waited, waited,
          "class=" + std::string(wire::PriorityToString(item.req.priority)));
    }
    // Re-check the cache: an identical request may have completed while
    // this one sat in the queue.
    std::shared_ptr<const engine::QueryResult> hit;
    if (config_.enable_cache) hit = cache_.Lookup(item.fingerprint);
    ServiceResponse response = RunQuery(
        item.req.query, item.req.method, item.req.options, std::move(hit),
        std::move(item.fingerprint), item.watch, item.trace, waited);
    metrics_.RecordClassLatency(cls, response.service_seconds);
    DeliverResponse(item.stream, ToWire(item.req.id, std::move(response)));
  }
  class_in_flight_[cls].fetch_sub(1, std::memory_order_acq_rel);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);

  if (is_batch) {
    bool refund = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --batch_executing_;
      if (stalled_batch_tokens_ > 0 && !queues_[batch_cls].empty()) {
        --stalled_batch_tokens_;
        refund = true;
      }
    }
    if (refund) {
      // Fund the replacement for a token retired at the cap. If the pool
      // is gone, Shutdown()'s flush loop picks the item up instead.
      (void)pool_.Submit([this]() { DrainOne(); });
    }
  }
}

void TopologyService::Submit(const wire::WireRequest& request,
                             wire::StreamSink& sink) {
  auto stream = std::make_shared<StreamState>();
  stream->sink = &sink;
  stream->open = 1;
  stream->send_end = false;
  SubmitToStream(request, stream, /*bypass_admission=*/false);
}

uint64_t TopologyService::SubmitStreamInternal(
    std::vector<wire::WireRequest> requests, wire::StreamSink* sink,
    std::shared_ptr<wire::StreamSink> owned, bool bypass_admission) {
  auto stream = std::make_shared<StreamState>();
  stream->id = next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  stream->sink = sink;
  stream->owned_sink = std::move(owned);
  stream->open = requests.size();
  stream->send_end = true;

  if (requests.empty()) {
    // Nothing will ever decrement open: deliver the end frame directly.
    wire::WireFrame end;
    end.kind = wire::FrameKind::kStreamEnd;
    end.stream_id = stream->id;
    std::lock_guard<std::mutex> lock(stream->sink_mu);
    stream->sink->OnFrame(end);
    return stream->id;
  }

  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    streams_.emplace(stream->id, stream);
  }
  for (wire::WireRequest& request : requests) {
    SubmitToStream(std::move(request), stream, bypass_admission);
  }
  return stream->id;
}

uint64_t TopologyService::SubmitStream(
    std::vector<wire::WireRequest> requests, wire::StreamSink& sink) {
  return SubmitStreamInternal(std::move(requests), &sink, nullptr,
                              /*bypass_admission=*/false);
}

bool TopologyService::CancelStream(uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(streams_mu_);
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return false;
  it->second->cancelled.store(true, std::memory_order_release);
  return true;
}

/// --- Legacy adapters -------------------------------------------------------

namespace {

/// One-shot sink bridging a single wire response to a future. The
/// promise is fulfilled on the delivering thread, so the future behaves
/// exactly like the pre-wire pool-backed one (wait_for sees it become
/// ready; no deferred-launch surprises).
class PromiseSink : public wire::StreamSink {
 public:
  explicit PromiseSink(
      std::function<ServiceResponse(const wire::WireResponse&)> convert)
      : convert_(std::move(convert)) {}

  std::future<ServiceResponse> Future() { return promise_.get_future(); }

  void OnFrame(const wire::WireFrame& frame) override {
    if (frame.kind != wire::FrameKind::kResponse) return;
    promise_.set_value(convert_(frame.response));
  }

 private:
  std::function<ServiceResponse(const wire::WireResponse&)> convert_;
  std::promise<ServiceResponse> promise_;
};

}  // namespace

std::future<ServiceResponse> TopologyService::Submit(
    const engine::TopologyQuery& query, engine::MethodKind method,
    const engine::ExecOptions& options) {
  auto sink = std::make_shared<PromiseSink>(&TopologyService::FromWire);
  std::future<ServiceResponse> future = sink->Future();

  wire::WireRequest request;
  request.query = query;
  request.method = method;
  request.options = options;
  request.priority = wire::Priority::kInteractive;

  // A single-submit stream of one; the stream state keeps `sink` alive
  // until its frame is delivered (guaranteed even through Shutdown).
  auto stream = std::make_shared<StreamState>();
  stream->sink = sink.get();
  stream->owned_sink = sink;
  stream->open = 1;
  stream->send_end = false;
  SubmitToStream(std::move(request), stream, /*bypass_admission=*/false);
  return future;
}

std::future<ServiceResponse> TopologyService::SubmitLine(
    const std::string& line) {
  Result<ParsedRequest> parsed = parser_.Parse(line);
  if (!parsed.ok()) {
    return Ready(ServiceResponse{parsed.status(), false, 0.0});
  }
  return Submit(parsed->query, parsed->method, parsed->options);
}

ServiceResponse TopologyService::Execute(const engine::TopologyQuery& query,
                                         engine::MethodKind method,
                                         const engine::ExecOptions& options) {
  return Submit(query, method, options).get();
}

namespace {

/// Sink assembling a whole batch outcome from its stream frames; fires the
/// callback on the kStreamEnd frame (the worker that finished last).
class BatchSink : public wire::StreamSink {
 public:
  BatchSink(size_t size, BatchCallback callback)
      : callback_(std::move(callback)) {
    responses_.resize(size);
  }

  void OnFrame(const wire::WireFrame& frame) override {
    if (frame.kind == wire::FrameKind::kResponse) {
      // Request ids are the batch slots; frames arrive in completion
      // order but land in input order.
      const size_t slot = static_cast<size_t>(frame.response.request_id);
      if (slot < responses_.size()) responses_[slot] = frame.response;
      return;
    }
    BatchOutcome outcome;
    outcome.responses.reserve(responses_.size());
    for (wire::WireResponse& response : responses_) {
      if (response.error.ok()) {
        outcome.total += response.result.stats;  // ExecStats::operator+=.
        if (response.from_cache) ++outcome.cache_hits;
        outcome.responses.push_back(
            ServiceResponse{std::move(response.result), response.from_cache,
                            response.service_seconds});
      } else {
        ++outcome.failures;
        outcome.responses.push_back(
            ServiceResponse{wire::StatusFromWireError(response.error),
                            response.from_cache, response.service_seconds});
      }
    }
    callback_(std::move(outcome));
  }

 private:
  std::vector<wire::WireResponse> responses_;
  BatchCallback callback_;
};

}  // namespace

void TopologyService::ExecuteBatchAsync(std::vector<ParsedRequest> requests,
                                        BatchCallback callback) {
  TSB_CHECK(callback != nullptr);
  if (requests.empty()) {
    callback(BatchOutcome{});
    return;
  }

  std::vector<wire::WireRequest> wire_requests;
  wire_requests.reserve(requests.size());
  for (size_t slot = 0; slot < requests.size(); ++slot) {
    wire::WireRequest request;
    request.id = slot;
    request.priority = wire::Priority::kBatch;
    request.query = std::move(requests[slot].query);
    request.method = requests[slot].method;
    request.options = requests[slot].options;
    wire_requests.push_back(std::move(request));
  }
  auto sink =
      std::make_shared<BatchSink>(requests.size(), std::move(callback));
  // The batch is one admitted unit: it charges the batch class (so
  // concurrent submissions see the load) but is not itself bounced.
  SubmitStreamInternal(std::move(wire_requests), sink.get(), sink,
                       /*bypass_admission=*/true);
}

BatchOutcome TopologyService::ExecuteBatch(
    const std::vector<ParsedRequest>& requests) {
  // Blocking flavor: delegate to the asynchronous path and wait. Safe to
  // call from any non-pool thread (a pool worker would deadlock the last
  // batch task behind itself — same contract as Rebuild).
  std::promise<BatchOutcome> done;
  std::future<BatchOutcome> future = done.get_future();
  ExecuteBatchAsync(requests, [&done](BatchOutcome outcome) {
    done.set_value(std::move(outcome));
  });
  return future.get();
}

std::future<TripleResponse> TopologyService::SubmitTriple(
    const engine::TripleQuery& query) {
  Stopwatch watch;
  if (!accepting_.load(std::memory_order_acquire)) {
    return Ready(TripleResponse{
        Status::FailedPrecondition("service is shut down"), false, 0.0});
  }
  if (!sharded() && triple_store_ == nullptr && live_handle_ == nullptr) {
    return Ready(TripleResponse{
        Status::FailedPrecondition(
            "3-queries not enabled; call EnableTripleQueries or "
            "AttachLiveStore"),
        false, 0.0});
  }

  std::string fingerprint = EpochFingerprint(FingerprintTripleQuery(query));
  if (config_.enable_cache) {
    if (std::shared_ptr<const engine::TripleQueryResult> hit =
            triple_cache_.Lookup(fingerprint)) {
      TripleResponse response{*hit, true, watch.ElapsedSeconds()};
      metrics_.RecordRequest(ServiceMetrics::kTripleSlot,
                             response.service_seconds, true, true);
      return Ready(std::move(response));
    }
  }

  // Triples ride the interactive class bound (they are user-facing) —
  // checked against the interactive counter, not total in-flight, so a
  // large admitted batch flood cannot starve 3-queries out of admission.
  const size_t interactive_cls =
      static_cast<size_t>(wire::Priority::kInteractive);
  size_t in_class = class_in_flight_[interactive_cls].fetch_add(
      1, std::memory_order_acq_rel);
  if (in_class >= config_.max_in_flight) {
    class_in_flight_[interactive_cls].fetch_sub(1,
                                                std::memory_order_acq_rel);
    metrics_.RecordRejected(interactive_cls);
    return Ready(TripleResponse{
        Status::ResourceExhausted("service overloaded"), false,
        watch.ElapsedSeconds()});
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  std::future<TripleResponse> future = pool_.Submit(
      [this, query, fingerprint = std::move(fingerprint), watch]() mutable {
        // Pin the triple backend for this evaluation: the shard set when
        // sharded, the live epoch when attached, else the fixed store.
        // Interning into the shared catalog is thread-safe, so no lock
        // excludes 2-query traffic.
        Result<engine::TripleQueryResult> result = [&]() {
          if (sharded()) return sharded_exec_->ExecuteTriple(query);
          std::shared_ptr<core::TopologyStore> backend = TripleBackend();
          return engine::ExecuteTripleQuery(
              db_, backend.get(), *triple_schema_, *triple_view_, query);
        }();
        const bool ok = result.ok();
        // As with 2-queries: partial (shard-degraded) results stay out
        // of the cache.
        if (ok && !result->partial && config_.enable_cache) {
          triple_cache_.Insert(
              fingerprint,
              std::make_shared<engine::TripleQueryResult>(*result));
        }
        TripleResponse response{std::move(result), false,
                                watch.ElapsedSeconds()};
        metrics_.RecordRequest(ServiceMetrics::kTripleSlot,
                               response.service_seconds, false, ok);
        class_in_flight_[static_cast<size_t>(wire::Priority::kInteractive)]
            .fetch_sub(1, std::memory_order_acq_rel);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return response;
      });
  if (!future.valid()) {
    class_in_flight_[interactive_cls].fetch_sub(1,
                                                std::memory_order_acq_rel);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return Ready(TripleResponse{
        Status::FailedPrecondition("service is shut down"), false, 0.0});
  }
  return future;
}

void TopologyService::InvalidateCache() {
  cache_.Clear();
  triple_cache_.Clear();
}

void TopologyService::Shutdown() {
  accepting_.store(false, std::memory_order_release);
  // Pool shutdown drains queued drain tokens: every admitted request still
  // executes (or sheds) and delivers its terminal frame before we return.
  pool_.Shutdown();
  // Flush items whose tokens retired at the batch concurrency cap (their
  // refunds found the pool gone). No workers remain, so this thread drains
  // them directly; every sink still sees its terminal frames.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queues_[0].empty() && queues_[1].empty()) break;
    }
    DrainOne(std::nullopt, /*ignore_batch_cap=*/true);
  }
}

}  // namespace service
}  // namespace tsb
