// The generated Biozon world every workload serves: database, graph views,
// the precomputed and pruned topology store (single or sharded), and the
// engine or scatter-gather executor over it. Stores are heap-owned behind
// core::StoreHandle; the catalog is declared first so it outlives every
// store whose cleanup hooks drop tables from it.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "biozon/generator.h"
#include "biozon/schema.h"
#include "core/builder.h"
#include "core/store.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "storage/catalog.h"

namespace perfbench {

/// The database is fixed: every run of every seed serves the same world,
/// so a seed changes only the request stream, never the data.
inline constexpr uint64_t kWorldSeed = 42;

using NamePair = std::pair<std::string, std::string>;
using TypePair = std::pair<tsb::storage::EntityTypeId,
                           tsb::storage::EntityTypeId>;

/// The eight non-SQL methods the workloads draw from, with the names the
/// per-layer metrics use. paper_grid's per-cell figures index this order.
struct BenchMethod {
  tsb::engine::MethodKind kind;
  const char* name;
};
inline constexpr BenchMethod kMethods[] = {
    {tsb::engine::MethodKind::kFullTop, "full-top"},
    {tsb::engine::MethodKind::kFastTop, "fast-top"},
    {tsb::engine::MethodKind::kFullTopK, "full-topk"},
    {tsb::engine::MethodKind::kFastTopK, "fast-topk"},
    {tsb::engine::MethodKind::kFullTopKEt, "full-topk-et"},
    {tsb::engine::MethodKind::kFastTopKEt, "fast-topk-et"},
    {tsb::engine::MethodKind::kFullTopKOpt, "full-topk-opt"},
    {tsb::engine::MethodKind::kFastTopKOpt, "fast-topk-opt"},
};
inline constexpr size_t kNumMethods = sizeof(kMethods) / sizeof(kMethods[0]);

/// Build caps shared by every world (the paper-bench configuration).
tsb::core::BuildConfig BenchBuildConfig();

/// Pruning threshold of a pair: 0.5% of its related entity pairs.
size_t PruneThreshold(const tsb::core::PairTopologyData& pair);

struct SetupTimes {
  double generate_s = 0.0;
  double build_s = 0.0;
  double prune_s = 0.0;
  double indexes_s = 0.0;
};

struct WorldOptions {
  double scale = 1.0;
  std::vector<NamePair> pairs = {{"Protein", "Interaction"}};
  /// 0 builds one store behind `handle` with an Engine; N > 0 builds an
  /// N-way ShardedTopologyStore with a ScatterGatherExecutor.
  size_t num_shards = 0;
  /// Sharded worlds: prune only this shard (a shard server serves one
  /// slice; the others exist only for deterministic catalog interning).
  /// SIZE_MAX prunes every shard.
  size_t prune_only_shard = SIZE_MAX;
  /// Sharded worlds: skip the executor (shard servers use a per-shard
  /// Engine of their own).
  bool make_executor = true;
};

struct World {
  tsb::storage::Catalog db;
  tsb::biozon::BiozonSchema ids;
  std::unique_ptr<tsb::graph::DataGraphView> view;
  std::unique_ptr<tsb::graph::SchemaGraph> schema;
  std::shared_ptr<tsb::core::StoreHandle> handle;             // Unsharded.
  std::shared_ptr<tsb::shard::ShardedTopologyStore> sharded;  // Sharded.
  std::unique_ptr<tsb::engine::Engine> engine;                // Unsharded.
  std::unique_ptr<tsb::shard::ScatterGatherExecutor> executor;  // Sharded.
  /// Absolute prune threshold per built pair (the mutation oracle re-prunes
  /// its rebuild with the same values).
  std::map<TypePair, size_t> prune_thresholds;
  SetupTimes times;

  tsb::storage::EntityTypeId Type(const std::string& entity_set) const;
};

std::unique_ptr<World> MakeWorld(const WorldOptions& options);

/// Seconds since this process started (static initialization): the clock
/// of the cold set-up time.
double SecondsSinceStart();

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
