#include "world.h"

#include "biozon/domain.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/pruner.h"

namespace perfbench {

using namespace tsb;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

}  // namespace

double SecondsSinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

core::BuildConfig BenchBuildConfig() {
  core::BuildConfig build;
  build.max_path_length = 3;
  build.max_class_representatives = 8;
  build.max_union_combinations = 512;
  build.max_paths_per_source = 200000;
  return build;
}

size_t PruneThreshold(const core::PairTopologyData& pair) {
  return static_cast<size_t>(0.005 *
                             static_cast<double>(pair.num_related_pairs));
}

storage::EntityTypeId World::Type(const std::string& entity_set) const {
  const storage::EntitySetDef* def = db.FindEntitySet(entity_set);
  TSB_CHECK(def != nullptr) << entity_set;
  return def->id;
}

namespace {

void PruneStore(World* w, core::TopologyStore* store) {
  std::vector<std::pair<TypePair, size_t>> plan;
  for (const auto& [key, pair] : store->pairs()) {
    plan.emplace_back(key, PruneThreshold(pair));
  }
  for (const auto& [key, threshold] : plan) {
    core::PruneConfig prune;
    prune.frequency_threshold = threshold;
    auto pruned = core::PruneFrequentTopologies(&w->db, store, key.first,
                                                key.second, prune);
    TSB_CHECK(pruned.ok()) << pruned.status();
    w->prune_thresholds[key] = threshold;
  }
}

}  // namespace

std::unique_ptr<World> MakeWorld(const WorldOptions& options) {
  auto w = std::make_unique<World>();
  Stopwatch watch;
  biozon::GeneratorConfig gen;
  gen.seed = kWorldSeed;
  gen.scale = options.scale;
  w->ids = biozon::GenerateBiozon(gen, &w->db);
  w->view = std::make_unique<graph::DataGraphView>(w->db);
  w->schema = std::make_unique<graph::SchemaGraph>(w->db);
  w->times.generate_s = watch.ElapsedSeconds();

  core::TopologyBuilder builder(&w->db, w->schema.get(), w->view.get());
  const core::BuildConfig build = BenchBuildConfig();
  engine::SqlBaselineOptions sql_options;
  sql_options.max_candidates = 500;

  if (options.num_shards == 0) {
    auto store = std::make_shared<core::TopologyStore>();
    watch.Restart();
    for (const auto& [a, b] : options.pairs) {
      Status built = builder.BuildPair(w->Type(a), w->Type(b), build,
                                       store.get());
      TSB_CHECK(built.ok()) << built;
    }
    w->times.build_s = watch.ElapsedSeconds();
    watch.Restart();
    PruneStore(w.get(), store.get());
    w->times.prune_s = watch.ElapsedSeconds();
    w->handle = std::make_shared<core::StoreHandle>(store);
    w->engine = std::make_unique<engine::Engine>(
        &w->db, w->handle, w->schema.get(), w->view.get(),
        core::ScoreModel(&store->catalog(),
                         biozon::MakeBiozonDomainKnowledge(w->ids)),
        sql_options);
    watch.Restart();
    for (const auto& [a, b] : options.pairs) w->engine->PrepareIndexes(a, b);
    w->times.indexes_s = watch.ElapsedSeconds();
    return w;
  }

  w->sharded =
      std::make_shared<shard::ShardedTopologyStore>(options.num_shards);
  std::vector<core::TopologyStore*> shards;
  for (size_t i = 0; i < options.num_shards; ++i) {
    shards.push_back(w->sharded->Snapshot(i).get());
  }
  watch.Restart();
  for (const auto& [a, b] : options.pairs) {
    Status built = builder.BuildPair(w->Type(a), w->Type(b), build, shards);
    TSB_CHECK(built.ok()) << built;
  }
  w->times.build_s = watch.ElapsedSeconds();
  watch.Restart();
  for (size_t i = 0; i < options.num_shards; ++i) {
    if (options.prune_only_shard == SIZE_MAX ||
        options.prune_only_shard == i) {
      PruneStore(w.get(), shards[i]);
    }
  }
  w->times.prune_s = watch.ElapsedSeconds();
  if (options.make_executor) {
    w->executor = std::make_unique<shard::ScatterGatherExecutor>(
        &w->db, w->sharded, w->schema.get(), w->view.get(),
        biozon::MakeBiozonDomainKnowledge(w->ids), sql_options);
    watch.Restart();
    for (const auto& [a, b] : options.pairs) {
      w->executor->PrepareIndexes(a, b);
    }
    w->times.indexes_s = watch.ElapsedSeconds();
  }
  return w;
}

}  // namespace perfbench
