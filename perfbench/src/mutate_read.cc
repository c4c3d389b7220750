// mutate_read: writes beside reads. An in-process service::TopologyService
// (AttachLiveStore + EnableMutations with a DeltaLog that fsyncs each
// batch) takes a closed-loop writer on ApplyMutations while one
// closed-loop reader queries Protein-Interaction and Protein-DNA with the
// cache on. A writer round is four batches: add an Interaction node with an
// Interacts_p edge, update a protein's DESC, add another node and edge,
// remove the first round edge. The reader pool fits the cache, so only
// mutations evict. Compaction runs on the mutation engine's own timer lane.
//
// Oracles, after the stream:
//  - every check query equals a from-scratch build over a second catalog
//    holding the generator's rows plus this benchmark's own record of each
//    acknowledged batch, applied without src/mutation; topologies are
//    compared by canonical code;
//  - DeltaLog::Open on the finished WAL returns exactly the acknowledged
//    batches.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "biozon/domain.h"
#include "core/pruner.h"
#include "mutation/delta_log.h"
#include "mutation/mutation.h"
#include "service/service.h"
#include "storage/predicate.h"
#include "world.h"

namespace perfbench {

using namespace tsb;
using engine::MethodKind;

namespace {

constexpr double kScale = 0.2;
constexpr size_t kServiceThreads = 2;
constexpr size_t kReadRound = 50;  // Reader queries per round.
/// Traced runs record the reader spans of one request in this many; reader
/// span request ids start here, apart from the writer's batch numbers.
constexpr uint64_t kReadSpanSample = 64;
constexpr uint64_t kReadRequestIds = 1000000000;
/// New node and edge ids start far above every generated id.
constexpr int64_t kFirstNewId = 50'000'000;
const char* const kDescriptions[] = {"synthetic kinase regulator",
                                     "binding domain variant",
                                     "cellular transport protein"};

struct ReadRequest {
  engine::TopologyQuery query;
  MethodKind method = MethodKind::kFullTop;
};

/// Reader pool: {Protein-Interaction, Protein-DNA} x {no predicate,
/// DESC contains 'binding' on Protein} x three schemes x eight methods.
std::vector<ReadRequest> MakeReadPool(const storage::Catalog& db) {
  std::vector<ReadRequest> pool;
  for (const char* partner : {"Interaction", "DNA"}) {
    for (bool predicated : {false, true}) {
      for (core::RankScheme scheme :
           {core::RankScheme::kFreq, core::RankScheme::kDomain,
            core::RankScheme::kRare}) {
        for (const BenchMethod& method : kMethods) {
          ReadRequest req;
          req.query.entity_set1 = "Protein";
          if (predicated) {
            req.query.pred1 = storage::MakeContainsKeyword(
                db.GetTable("Protein")->schema(), "DESC", "binding");
          }
          req.query.entity_set2 = partner;
          req.query.scheme = scheme;
          req.query.k = 10;
          req.method = method.kind;
          pool.push_back(std::move(req));
        }
      }
    }
  }
  return pool;
}

enum class BatchKind { kAdd, kAttribute, kRemove };
const char* BatchKindName(BatchKind kind) {
  switch (kind) {
    case BatchKind::kAdd:
      return "add";
    case BatchKind::kAttribute:
      return "attribute";
    case BatchKind::kRemove:
      return "remove";
  }
  return "?";
}

/// The writer's seeded batch stream, in whole rounds of four batches.
class BatchStream {
 public:
  BatchStream(const storage::Catalog& db, uint64_t seed) : rng_(seed) {
    const storage::Table* proteins = db.GetTable("Protein");
    const size_t col = *proteins->schema().FindColumn("ID");
    for (size_t r = 0; r < proteins->num_rows(); ++r) {
      protein_ids_.push_back(proteins->GetInt64(r, col));
    }
  }

  static constexpr size_t kRoundBatches = 4;

  std::pair<BatchKind, mutation::MutationBatch> Next() {
    const size_t step = count_++ % kRoundBatches;
    mutation::MutationBatch batch;
    if (step == 0 || step == 2) {
      const int64_t node = next_id_++;
      const int64_t edge = next_id_++;
      if (step == 0) round_edge_ = edge;
      batch.ops = {
          mutation::AddNode("Interaction", node,
                            {{"DESC", storage::Value(std::string(
                                          "synthetic interaction"))}}),
          mutation::AddEdge("Interacts_p", edge, Protein(), node)};
      return {BatchKind::kAdd, batch};
    }
    if (step == 1) {
      const char* desc = kDescriptions[rng_() % 3];
      batch.ops = {mutation::UpdateAttribute(
          "Protein", Protein(), "DESC", storage::Value(std::string(desc)))};
      return {BatchKind::kAttribute, batch};
    }
    batch.ops = {mutation::RemoveEdge("Interacts_p", round_edge_)};
    return {BatchKind::kRemove, batch};
  }

 private:
  int64_t Protein() { return protein_ids_[rng_() % protein_ids_.size()]; }

  std::mt19937_64 rng_;
  std::vector<int64_t> protein_ids_;
  size_t count_ = 0;
  int64_t next_id_ = kFirstNewId;
  int64_t round_edge_ = 0;
};

/// Row-level model of the mutated database, applied without src/mutation.
/// Row order mirrors the copy-on-write tables: original order minus
/// removed rows, additions appended, updates in place.
class RowModel {
 public:
  explicit RowModel(const storage::Catalog& source) : source_(source) {
    for (const storage::EntitySetDef& es : source.entity_sets()) {
      Load(es.table_name);
    }
    for (const storage::RelationshipSetDef& rs : source.relationship_sets()) {
      Load(rs.table_name);
    }
  }

  void Apply(const mutation::MutationBatch& batch) {
    for (const mutation::Mutation& op : batch.ops) Apply(op);
  }

  /// Appends the surviving rows to the same-named empty tables of `db`.
  void Materialize(storage::Catalog* db) const {
    for (const auto& [name, rows] : tables_) {
      storage::Table* table = db->GetTable(name);
      for (size_t r = 0; r < rows.rows.size(); ++r) {
        if (!rows.dead[r]) table->AppendRowOrDie(rows.rows[r]);
      }
    }
  }

 private:
  struct Rows {
    std::vector<storage::Tuple> rows;
    std::vector<bool> dead;
  };

  void Load(const std::string& name) {
    const storage::Table* table = source_.GetTable(name);
    Rows& rows = tables_[name];
    for (size_t r = 0; r < table->num_rows(); ++r) {
      rows.rows.push_back(table->GetRow(r));
      rows.dead.push_back(false);
    }
  }

  static storage::Value Zero(storage::ColumnType type) {
    switch (type) {
      case storage::ColumnType::kInt64:
        return storage::Value(static_cast<int64_t>(0));
      case storage::ColumnType::kDouble:
        return storage::Value(0.0);
      case storage::ColumnType::kString:
        return storage::Value(std::string());
    }
    return storage::Value(static_cast<int64_t>(0));
  }

  void Kill(const std::string& table, const std::string& column, int64_t id) {
    const size_t c = *source_.GetTable(table)->schema().FindColumn(column);
    Rows& rows = tables_[table];
    for (size_t r = 0; r < rows.rows.size(); ++r) {
      if (!rows.dead[r] && rows.rows[r][c].AsInt64() == id) rows.dead[r] = true;
    }
  }

  void Apply(const mutation::Mutation& op) {
    using mutation::MutationKind;
    if (op.kind == MutationKind::kAddNode ||
        op.kind == MutationKind::kUpdateAttribute ||
        op.kind == MutationKind::kRemoveNode) {
      const storage::EntitySetDef* es = source_.FindEntitySet(op.set_name);
      TSB_CHECK(es != nullptr) << op.set_name;
      const storage::TableSchema& schema =
          source_.GetTable(es->table_name)->schema();
      Rows& rows = tables_[es->table_name];
      if (op.kind == MutationKind::kAddNode) {
        storage::Tuple row(schema.num_columns());
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          row[c] = schema.column(c).name == es->id_column
                       ? storage::Value(op.id)
                       : Zero(schema.column(c).type);
        }
        for (const auto& [column, value] : op.attributes) {
          row[*schema.FindColumn(column)] = value;
        }
        rows.rows.push_back(std::move(row));
        rows.dead.push_back(false);
      } else if (op.kind == MutationKind::kUpdateAttribute) {
        const size_t id_col = *schema.FindColumn(es->id_column);
        for (size_t r = 0; r < rows.rows.size(); ++r) {
          if (rows.dead[r] || rows.rows[r][id_col].AsInt64() != op.id) continue;
          for (const auto& [column, value] : op.attributes) {
            rows.rows[r][*schema.FindColumn(column)] = value;
          }
        }
      } else {
        Kill(es->table_name, es->id_column, op.id);
        for (const storage::RelationshipSetDef& rs :
             source_.relationship_sets()) {
          if (rs.from_type == es->id) Kill(rs.table_name, rs.from_column, op.id);
          if (rs.to_type == es->id) Kill(rs.table_name, rs.to_column, op.id);
        }
      }
      return;
    }
    const storage::RelationshipSetDef* rs =
        source_.FindRelationshipSet(op.set_name);
    TSB_CHECK(rs != nullptr) << op.set_name;
    if (op.kind == MutationKind::kRemoveEdge) {
      Kill(rs->table_name, rs->id_column, op.id);
      return;
    }
    const storage::TableSchema& schema =
        source_.GetTable(rs->table_name)->schema();
    storage::Tuple row(schema.num_columns());
    row[*schema.FindColumn(rs->id_column)] = storage::Value(op.id);
    row[*schema.FindColumn(rs->from_column)] = storage::Value(op.from);
    row[*schema.FindColumn(rs->to_column)] = storage::Value(op.to);
    Rows& rows = tables_[rs->table_name];
    rows.rows.push_back(std::move(row));
    rows.dead.push_back(false);
  }

  const storage::Catalog& source_;
  std::map<std::string, Rows> tables_;
};

using CodedAnswer = std::vector<std::pair<std::string, double>>;

CodedAnswer ByCode(const std::vector<engine::ResultEntry>& entries,
                   const core::TopologyCatalog& catalog) {
  CodedAnswer out;
  for (const engine::ResultEntry& entry : entries) {
    out.emplace_back(catalog.Get(entry.tid).code, entry.score);
  }
  return out;
}

double FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

}  // namespace

RunResult RunMutateRead(const RunOptions& options) {
  RunResult result;
  SpanRecorder spans(options.trace);
  SpanRecorder unsampled(false);
  const std::string wal_path = options.out_dir + "/mutate_read_" +
                               std::to_string(::getpid()) + ".wal";
  const std::string wal_copy_path = wal_path + ".append";
  ::unlink(wal_path.c_str());
  ::unlink(wal_copy_path.c_str());

  WorldOptions world_options;
  world_options.scale = kScale;
  world_options.pairs = {{"Protein", "Interaction"}, {"Protein", "DNA"}};
  std::unique_ptr<World> world = MakeWorld(world_options);

  mutation::DeltaLog wal;
  {
    std::vector<mutation::MutationBatch> replayed;
    auto opened = wal.Open(wal_path, &replayed);
    TSB_CHECK(opened.ok()) << opened.status();
  }
  service::ServiceConfig config;
  config.num_threads = kServiceThreads;
  auto service = std::make_unique<service::TopologyService>(
      world->engine.get(), &world->db, config);
  Status attached = service->AttachLiveStore(world->schema.get(),
                                             world->view.get());
  TSB_CHECK(attached.ok()) << attached;
  mutation::MutationEngine::Options mutation_options;
  mutation_options.build = BenchBuildConfig();
  Status enabled = service->EnableMutations(mutation_options, &wal);
  TSB_CHECK(enabled.ok()) << enabled;
  service->mutation_engine()->StartCompaction();
  const std::vector<ReadRequest> pool = MakeReadPool(world->db);
  const double setup_s = SecondsSinceStart();

  // The writer: whole rounds of batches until the window closes.
  std::vector<mutation::MutationBatch> acknowledged;
  std::vector<double> apply_ms;
  std::vector<std::pair<BatchKind, uint64_t>> apply_spans;
  std::vector<std::string> write_errors;
  uint64_t restaged_pairs = 0, write_attempts = 0, write_failures = 0;
  std::atomic<bool> writer_done{false};
  Stopwatch window;
  std::thread writer([&]() {
    BatchStream stream(world->db, options.seed);
    while (window.ElapsedSeconds() < options.seconds) {
      for (size_t b = 0; b < BatchStream::kRoundBatches; ++b) {
        auto [kind, batch] = stream.Next();
        Stopwatch watch;
        Result<mutation::ApplyStats> applied = Status::Internal("unset");
        {
          ScopedSpan span(&spans, "mutation.apply", 0, write_attempts + 1,
                          BatchKindName(kind));
          applied = service->ApplyMutations(batch);
          apply_spans.emplace_back(kind, span.id());
        }
        ++write_attempts;
        if (!applied.ok()) {
          ++write_failures;
          write_errors.push_back("ApplyMutations failed: " +
                                 applied.status().ToString());
          continue;
        }
        apply_ms.push_back(watch.ElapsedMillis());
        restaged_pairs += applied->structural_pairs;
        acknowledged.push_back(std::move(batch));
      }
    }
    writer_done = true;
  });

  // The reader: whole rounds until the writer is done.
  const service::QueryCache::Stats cache_before = service->CacheStats();
  std::vector<SlicedLatencies> read_ms(1, SlicedLatencies(kSliceSeconds));
  uint64_t read_attempts = 0, read_failures = 0;
  {
    std::mt19937_64 rng(options.seed * 31 + 1);
    ReplySink sink;
    while (!writer_done) {
      for (size_t i = 0; i < kReadRound; ++i) {
        const ReadRequest& req = pool[rng() % pool.size()];
        wire::WireRequest request;
        request.id = ++read_attempts;
        request.query = req.query;
        request.method = req.method;
        Stopwatch watch;
        wire::WireResponse reply;
        {
          SpanRecorder* recorder =
              request.id % kReadSpanSample == 0 ? &spans : &unsampled;
          const uint64_t id = kReadRequestIds + request.id;
          ScopedSpan root(recorder, "client.request", 0, id);
          ScopedSpan call(recorder, "service.submit", root.id(), id);
          service->Submit(request, sink);
          reply = sink.Wait();
        }
        const double ms = watch.ElapsedMillis();
        if (!reply.error.ok()) {
          ++read_failures;
          continue;
        }
        if (reply.result.partial) result.Fail("partial reader response");
        read_ms[0].Add(window.ElapsedSeconds(), ms);
      }
    }
  }
  writer.join();
  for (const std::string& error : write_errors) result.Fail(error);
  const double window_s = window.ElapsedSeconds();
  const WindowMetrics reads =
      Summarize(&read_ms, FullSlices(options.seconds));
  const double peak_rss_mb = SelfPeakRssMb();
  const service::QueryCache::Stats cache_after = service->CacheStats();
  const uint64_t folds = service->mutation_engine()->compaction_rounds();
  service->mutation_engine()->StopCompaction();
  result.attempted = read_attempts + write_attempts;
  result.failed = read_failures + write_failures;

  // Check answers through the service, then the rebuild oracle.
  std::vector<std::vector<engine::ResultEntry>> live_answers;
  {
    ReplySink sink;
    for (size_t i = 0; i < pool.size(); ++i) {
      wire::WireRequest request;
      request.id = i + 1;
      request.query = pool[i].query;
      request.method = pool[i].method;
      service->Submit(request, sink);
      wire::WireResponse reply = sink.Wait();
      if (!reply.error.ok()) {
        result.Fail("check query failed: " + reply.error.message);
        live_answers.emplace_back();
        continue;
      }
      live_answers.push_back(std::move(reply.result.entries));
    }
  }
  if (options.corrupt == "rebuild_identity" && !live_answers.empty() &&
      !live_answers[0].empty()) {
    live_answers[0].pop_back();
  }
  std::shared_ptr<core::TopologyStore> live_store = world->handle->Snapshot();
  const double wal_bytes = FileBytes(wal_path);
  service->Shutdown();
  wal.Close();

  {
    storage::Catalog scratch;
    biozon::GeneratorConfig gen;
    gen.seed = kWorldSeed;
    gen.scale = kScale;
    biozon::GenerateBiozon(gen, &scratch);
    RowModel model(scratch);
    for (const mutation::MutationBatch& batch : acknowledged) {
      model.Apply(batch);
    }
    if (options.corrupt == "extra_batch" && !acknowledged.empty()) {
      // One batch too many: the first acknowledged batch again, under
      // fresh ids.
      mutation::MutationBatch extra = acknowledged.front();
      for (mutation::Mutation& op : extra.ops) {
        op.id += kFirstNewId;
        if (op.kind == mutation::MutationKind::kAddEdge) op.to += kFirstNewId;
      }
      model.Apply(extra);
    }
    storage::Catalog db;
    biozon::BiozonSchema ids = biozon::CreateBiozonSchema(&db);
    model.Materialize(&db);
    graph::DataGraphView view(db);
    graph::SchemaGraph schema(db);
    // Seed the rebuild's catalog with the live one so TIDs line up; the
    // comparison below still goes by canonical code.
    auto store = std::make_shared<core::TopologyStore>();
    auto seeded = std::make_shared<core::TopologyCatalog>();
    const core::TopologyCatalog& live_catalog = live_store->catalog();
    for (core::Tid tid = 1;
         tid <= static_cast<core::Tid>(live_catalog.size()); ++tid) {
      const core::TopologyInfo& info = live_catalog.Get(tid);
      seeded->InternWithCode(info.graph, info.code, info.num_classes,
                             live_catalog.ClassKeysOf(tid));
    }
    store->adopt_catalog(seeded);
    core::TopologyBuilder builder(&db, &schema, &view);
    for (const auto& [a, b] : world_options.pairs) {
      const storage::EntityTypeId ta = db.FindEntitySet(a)->id;
      const storage::EntityTypeId tb = db.FindEntitySet(b)->id;
      Status built = builder.BuildPair(ta, tb, BenchBuildConfig(), store.get());
      TSB_CHECK(built.ok()) << built;
      core::PruneConfig prune;
      prune.frequency_threshold =
          world->prune_thresholds.at(core::TopologyStore::NormalizePair(ta, tb));
      TSB_CHECK(core::PruneFrequentTopologies(&db, store.get(), ta, tb, prune)
                    .ok());
    }
    auto handle = std::make_shared<core::StoreHandle>(store);
    engine::Engine rebuilt(
        &db, handle, &schema, &view,
        core::ScoreModel(&store->catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids)));
    const std::vector<ReadRequest> oracle_pool = MakeReadPool(db);
    for (size_t i = 0; i < oracle_pool.size(); ++i) {
      auto answer = rebuilt.Execute(oracle_pool[i].query, oracle_pool[i].method);
      if (!answer.ok()) {
        result.Fail("rebuild oracle query failed: " + answer.status().ToString());
        continue;
      }
      if (ByCode(answer->entries, store->catalog()) !=
          ByCode(live_answers[i], live_catalog)) {
        result.Fail("check query " + std::to_string(i) +
                    " differs from the from-scratch rebuild");
      }
    }
  }

  {
    mutation::DeltaLog reopened;
    std::vector<mutation::MutationBatch> replayed;
    auto opened = reopened.Open(wal_path, &replayed);
    const size_t expected =
        acknowledged.size() + (options.corrupt == "wal_count" ? 1 : 0);
    if (!opened.ok() || opened->batches != expected ||
        replayed.size() != expected) {
      result.Fail("WAL replays " +
                  std::to_string(opened.ok() ? opened->batches : 0) +
                  " batches, " + std::to_string(expected) +
                  " were acknowledged");
    } else {
      for (size_t i = 0; i < expected; ++i) {
        if (replayed[i] != acknowledged[i]) {
          result.Fail("WAL record " + std::to_string(i) +
                      " differs from the acknowledged batch");
          break;
        }
      }
    }
  }
  ::unlink(wal_path.c_str());

  if (!options.trace) {
    result.metrics["setup_s"] = setup_s;
    result.metrics["query_p50_ms"] = reads.p50_ms;
    result.metrics["query_p95_ms"] = reads.p95_ms;
    result.metrics["queries_per_s"] = reads.per_second;
    result.metrics["peak_rss_mb"] = peak_rss_mb;
    return result;
  }

  std::map<std::string, double>& m = result.metrics;
  m["biozon.generate_s"] = world->times.generate_s;
  m["core.build_s"] = world->times.build_s;
  m["core.prune_s"] = world->times.prune_s;
  m["engine.prepare_indexes_s"] = world->times.indexes_s;
  std::vector<double> structural_ms, attribute_ms;
  for (const auto& [kind, id] : apply_spans) {
    (kind == BatchKind::kAttribute ? attribute_ms : structural_ms)
        .push_back(spans.DurationMs(id));
  }
  m["mutation.apply_ms.structural"] = Median(structural_ms);
  m["mutation.apply_ms.attribute"] = Median(attribute_ms);
  m["mutation.apply_p50_ms"] = Median(apply_ms);
  m["mutation.applies_per_s"] = static_cast<double>(apply_ms.size()) / window_s;
  const double batches = static_cast<double>(std::max<size_t>(1, acknowledged.size()));
  m["mutation.restaged_pairs_per_batch"] =
      static_cast<double>(restaged_pairs) / batches;
  m["mutation.wal_bytes_per_batch"] = wal_bytes / batches;
  m["mutation.compaction_folds"] = static_cast<double>(folds);
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t misses = cache_after.misses - cache_before.misses;
  m["service.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  m["trace.query_p50_ms"] = reads.p50_ms;

  // The WAL append alone: the same batches to a separate log.
  {
    mutation::DeltaLog copy;
    std::vector<mutation::MutationBatch> none;
    TSB_CHECK(copy.Open(wal_copy_path, &none).ok());
    for (const mutation::MutationBatch& batch : acknowledged) {
      ScopedSpan span(&spans, "wal.append", 0, 0);
      TSB_CHECK(copy.Append(batch).ok());
    }
  }
  m["mutation.wal_append_ms"] = Median(spans.DurationsMs("wal.append"));
  ::unlink(wal_copy_path.c_str());
  FinishTrace(options, spans, &result);
  return result;
}

}  // namespace perfbench
