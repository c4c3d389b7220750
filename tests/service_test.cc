// The concurrent query service (src/service/): thread pool, canonical
// fingerprints, the sharded LRU result cache, the text request parser,
// metrics, and the TopologyService frontend — including the contract that
// N concurrent clients observe results identical to sequential
// Engine::Execute.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "service/metrics.h"
#include "service/query_cache.h"
#include "service/request_parser.h"
#include "service/service.h"
#include "service/thread_pool.h"

namespace tsb {
namespace {

using engine::MethodKind;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsTasksAndDeliversResults) {
  service::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(futures[i].valid());
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  {
    service::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&executed]() { ++executed; });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(executed.load(), 32);
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsInvalidFuture) {
  service::ThreadPool pool(1);
  pool.Shutdown();
  std::future<int> future = pool.Submit([]() { return 1; });
  EXPECT_FALSE(future.valid());
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  service::ThreadPool pool(2);
  // Two tasks that can only finish if both run at once.
  std::promise<void> gate1, gate2;
  auto f1 = pool.Submit([&]() {
    gate1.set_value();
    gate2.get_future().wait();
  });
  auto f2 = pool.Submit([&]() {
    gate1.get_future().wait();
    gate2.set_value();
  });
  f1.get();
  f2.get();
}

// ---------------------------------------------------------------------------
// Fingerprints + cache (no database needed)
// ---------------------------------------------------------------------------

engine::QueryResult MakeResult(size_t num_entries, const std::string& plan) {
  engine::QueryResult result;
  for (size_t i = 0; i < num_entries; ++i) {
    result.entries.push_back(
        {static_cast<core::Tid>(i), static_cast<double>(i)});
  }
  result.stats.plan = plan;
  return result;
}

size_t EntryCost(const std::string& key, const engine::QueryResult& value) {
  return key.size() + service::CachedCost(value) +
         service::QueryCache::kEntryOverhead;
}

TEST(StableHasherTest, DeterministicAndLengthPrefixed) {
  Hash128 a = StableHasher().Add("ab").Add("c").Digest();
  Hash128 b = StableHasher().Add("ab").Add("c").Digest();
  EXPECT_EQ(a, b);
  // Length prefixing: ("ab","c") must differ from ("a","bc") and ("abc").
  EXPECT_NE(a, StableHasher().Add("a").Add("bc").Digest());
  EXPECT_NE(a, StableHasher().Add("abc").Digest());
  EXPECT_NE(StableHasher().AddU64(1).Digest(),
            StableHasher().AddU64(2).Digest());
  // Both lanes carry entropy (the digest is not lane-duplicated).
  EXPECT_NE(a.lo, a.hi);
}

TEST(StableHasherTest, DigestSpreadsAcrossShardCounts) {
  // Low bits must not collapse (regression for an even hi multiplier):
  // 256 distinct keys over 8 buckets should touch every bucket.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 256; ++i) {
    buckets.insert(
        service::FingerprintDigest("key" + std::to_string(i)).lo % 8);
  }
  EXPECT_EQ(buckets.size(), 8u);
}

TEST(FingerprintTest, SideOrderIsNormalized) {
  engine::TopologyQuery q1;
  q1.entity_set1 = "Protein";
  q1.entity_set2 = "DNA";
  engine::TopologyQuery q2;
  q2.entity_set1 = "DNA";
  q2.entity_set2 = "Protein";
  engine::ExecOptions opts;
  EXPECT_EQ(service::FingerprintQuery(q1, MethodKind::kFullTop, opts),
            service::FingerprintQuery(q2, MethodKind::kFullTop, opts));
}

TEST(FingerprintTest, MethodSchemeAndKParticipate) {
  engine::TopologyQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "DNA";
  engine::ExecOptions opts;
  std::string base = service::FingerprintQuery(q, MethodKind::kFullTopK, opts);
  EXPECT_NE(base, service::FingerprintQuery(q, MethodKind::kFastTopK, opts));

  engine::TopologyQuery k5 = q;
  k5.k = 5;
  EXPECT_NE(base, service::FingerprintQuery(k5, MethodKind::kFullTopK, opts));
  // Non-top-k methods ignore k entirely: normalized to the same key.
  EXPECT_EQ(service::FingerprintQuery(q, MethodKind::kFullTop, opts),
            service::FingerprintQuery(k5, MethodKind::kFullTop, opts));

  engine::TopologyQuery rare = q;
  rare.scheme = core::RankScheme::kRare;
  EXPECT_NE(base,
            service::FingerprintQuery(rare, MethodKind::kFullTopK, opts));
}

TEST(FingerprintTest, TripleSidePermutationsCollide) {
  engine::TripleQuery a;
  a.entity_set1 = "Protein";
  a.entity_set2 = "Unigene";
  a.entity_set3 = "DNA";
  engine::TripleQuery b;
  b.entity_set1 = "DNA";
  b.entity_set2 = "Protein";
  b.entity_set3 = "Unigene";
  EXPECT_EQ(service::FingerprintTripleQuery(a),
            service::FingerprintTripleQuery(b));
  b.max_triples = 7;
  EXPECT_NE(service::FingerprintTripleQuery(a),
            service::FingerprintTripleQuery(b));
}

TEST(QueryCacheTest, LookupHitRefreshesRecencyAndEvictionIsLru) {
  engine::QueryResult value = MakeResult(4, "plan");
  const size_t cost = EntryCost("A", value);
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 2 * cost;  // Fits exactly two (equal-cost) entries.
  service::QueryCache cache(config);

  auto insert = [&cache, &value](const std::string& key) {
    return cache.Insert(key,
                        std::make_shared<engine::QueryResult>(value));
  };
  EXPECT_TRUE(insert("A"));
  EXPECT_TRUE(insert("B"));
  EXPECT_EQ(cache.GetStats().entries, 2u);

  // Touch A so B becomes least-recently-used, then insert C.
  EXPECT_NE(cache.Lookup("A"), nullptr);
  EXPECT_TRUE(insert("C"));

  EXPECT_NE(cache.Lookup("A"), nullptr);
  EXPECT_EQ(cache.Lookup("B"), nullptr);  // Evicted.
  EXPECT_NE(cache.Lookup("C"), nullptr);

  auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

TEST(QueryCacheTest, ByteBudgetIsRespected) {
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 4096;
  service::QueryCache cache(config);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i),
                 std::make_shared<engine::QueryResult>(MakeResult(8, "p")));
    EXPECT_LE(cache.GetStats().bytes, config.max_bytes);
  }
  EXPECT_GT(cache.GetStats().evictions, 0u);
}

TEST(QueryCacheTest, OversizedValueIsNotAdmitted) {
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 256;
  service::QueryCache cache(config);
  EXPECT_FALSE(cache.Insert(
      "big", std::make_shared<engine::QueryResult>(MakeResult(1000, "p"))));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(QueryCacheTest, ClearDropsEverything) {
  service::QueryCache cache;
  cache.Insert("A", std::make_shared<engine::QueryResult>(MakeResult(2, "")));
  ASSERT_NE(cache.Lookup("A"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("A"), nullptr);
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.clears, 1u);
}

TEST(QueryCacheTest, EvictionNeverInvalidatesHeldResults) {
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 2048;
  service::QueryCache cache(config);
  cache.Insert("A", std::make_shared<engine::QueryResult>(MakeResult(4, "x")));
  std::shared_ptr<const engine::QueryResult> held = cache.Lookup("A");
  ASSERT_NE(held, nullptr);
  for (int i = 0; i < 50; ++i) {  // Force A out.
    cache.Insert("k" + std::to_string(i),
                 std::make_shared<engine::QueryResult>(MakeResult(4, "x")));
  }
  EXPECT_EQ(cache.Lookup("A"), nullptr);
  EXPECT_EQ(held->entries.size(), 4u);  // Still alive and intact.
  EXPECT_EQ(held->stats.plan, "x");
}

// ---------------------------------------------------------------------------
// Service on the Figure-3 fixture
// ---------------------------------------------------------------------------

class ServiceFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 3;
    ASSERT_TRUE(
        builder.BuildPair(ids_.protein, ids_.dna, config, &store_).ok());
    ASSERT_TRUE(builder.BuildPair(ids_.protein, ids_.unigene, config, &store_)
                    .ok());
    ASSERT_TRUE(
        builder.BuildPair(ids_.unigene, ids_.dna, config, &store_).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    ASSERT_TRUE(core::PruneFrequentTopologies(&db_, &store_, ids_.protein,
                                              ids_.dna, prune)
                    .ok());
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
    engine_->PrepareIndexes("Protein", "DNA");
  }

  engine::TopologyQuery ExampleQuery(core::RankScheme scheme,
                                     size_t k = 10) const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.pred2 = storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                                  storage::Value("mRNA"));
    q.scheme = scheme;
    q.k = k;
    return q;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(ServiceFig3Test, ConcurrentClientsMatchSequentialExecution) {
  // The tentpole contract: N threads × M repeated queries through the
  // service produce results identical to sequential Engine::Execute.
  const std::vector<MethodKind> methods = {
      MethodKind::kFullTop,    MethodKind::kFastTop,
      MethodKind::kFullTopK,   MethodKind::kFastTopK,
      MethodKind::kFullTopKEt, MethodKind::kFastTopKEt,
  };
  const std::vector<core::RankScheme> schemes = {
      core::RankScheme::kFreq, core::RankScheme::kRare,
      core::RankScheme::kDomain};

  // Sequential ground truth, one per (method, scheme).
  std::vector<std::vector<engine::ResultEntry>> expected;
  for (MethodKind method : methods) {
    for (core::RankScheme scheme : schemes) {
      auto result = engine_->Execute(ExampleQuery(scheme), method);
      ASSERT_TRUE(result.ok());
      expected.push_back(result->entries);
    }
  }

  service::ServiceConfig config;
  config.num_threads = 8;
  service::TopologyService svc(engine_.get(), &db_, config);

  const size_t kThreads = 8;
  const size_t kRepeats = 6;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      for (size_t rep = 0; rep < kRepeats; ++rep) {
        size_t case_index = 0;
        for (MethodKind method : methods) {
          for (core::RankScheme scheme : schemes) {
            auto response =
                svc.Submit(ExampleQuery(scheme), method).get();
            if (!response.result.ok()) {
              ++failures;
            } else if (response.result->entries !=
                       expected[case_index]) {
              ++mismatches;
            }
            ++case_index;
            (void)t;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  auto metrics = svc.Metrics();
  EXPECT_EQ(metrics.total_requests,
            kThreads * kRepeats * methods.size() * schemes.size());
  EXPECT_EQ(metrics.total_errors, 0u);
  // Every (method, scheme) repeats 48×; almost all must be cache hits.
  EXPECT_GT(metrics.total_cache_hits, metrics.total_requests / 2);
}

TEST_F(ServiceFig3Test, CachedResultsAreIdenticalToUncached) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto cold = svc.Execute(ExampleQuery(core::RankScheme::kDomain),
                          MethodKind::kFastTopKEt);
  ASSERT_TRUE(cold.result.ok());
  EXPECT_FALSE(cold.from_cache);

  auto warm = svc.Execute(ExampleQuery(core::RankScheme::kDomain),
                          MethodKind::kFastTopKEt);
  ASSERT_TRUE(warm.result.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.result->entries, cold.result->entries);
  EXPECT_EQ(warm.result->stats.plan, cold.result->stats.plan);

  auto stats = svc.CacheStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ServiceFig3Test, SwappedQueryOrderHitsTheSameCacheEntry) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto cold = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                          MethodKind::kFullTop);
  ASSERT_TRUE(cold.result.ok());

  engine::TopologyQuery swapped;
  swapped.entity_set1 = "DNA";
  swapped.pred1 = storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                                      storage::Value("mRNA"));
  swapped.entity_set2 = "Protein";
  swapped.pred2 = storage::MakeContainsKeyword(
      db_.GetTable("Protein")->schema(), "DESC", "enzyme");
  swapped.scheme = core::RankScheme::kFreq;
  auto warm = svc.Execute(swapped, MethodKind::kFullTop);
  ASSERT_TRUE(warm.result.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.result->entries, cold.result->entries);
}

TEST_F(ServiceFig3Test, InvalidationOnRebuildClearsTheCache) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto first = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                           MethodKind::kFullTop);
  ASSERT_TRUE(first.result.ok());
  EXPECT_EQ(svc.CacheStats().entries, 1u);

  // A store rebuild must be followed by InvalidateCache(); afterwards the
  // same request is served cold (and correct) again.
  svc.InvalidateCache();
  EXPECT_EQ(svc.CacheStats().entries, 0u);
  auto second = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                            MethodKind::kFullTop);
  ASSERT_TRUE(second.result.ok());
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(second.result->entries, first.result->entries);
}

TEST_F(ServiceFig3Test, AdmissionControlRejectsOverload) {
  service::ServiceConfig config;
  config.num_threads = 1;
  config.max_in_flight = 0;  // Everything cold is over the bound.
  config.enable_cache = false;
  service::TopologyService svc(engine_.get(), &db_, config);
  auto response = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                              MethodKind::kFullTop);
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.Metrics().total_rejected, 1u);
}

TEST_F(ServiceFig3Test, SubmitAfterShutdownFailsCleanly) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  svc.Shutdown();
  auto response = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                              MethodKind::kFullTop);
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServiceFig3Test, EngineErrorsSurfaceThroughTheService) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  engine::TopologyQuery bad;
  bad.entity_set1 = "Nope";
  bad.entity_set2 = "DNA";
  auto response = svc.Execute(bad, MethodKind::kFullTop);
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc.Metrics().total_errors, 1u);
  // Errors are not cached.
  EXPECT_EQ(svc.CacheStats().entries, 0u);
}

TEST_F(ServiceFig3Test, BatchAccumulatesStatsWithOperatorPlusEquals) {
  service::ServiceConfig config;
  config.enable_cache = false;
  service::TopologyService svc(engine_.get(), &db_, config);

  std::vector<service::ParsedRequest> batch(3);
  batch[0].query = ExampleQuery(core::RankScheme::kFreq);
  batch[0].method = MethodKind::kFullTop;
  batch[1].query = ExampleQuery(core::RankScheme::kRare);
  batch[1].method = MethodKind::kFullTopK;
  batch[2].query = ExampleQuery(core::RankScheme::kDomain);
  batch[2].method = MethodKind::kFastTop;

  auto outcome = svc.ExecuteBatch(batch);
  ASSERT_EQ(outcome.responses.size(), 3u);
  EXPECT_EQ(outcome.failures, 0u);

  engine::ExecStats expected;
  for (const auto& response : outcome.responses) {
    ASSERT_TRUE(response.result.ok());
    expected += response.result->stats;
  }
  EXPECT_EQ(outcome.total.rows_scanned, expected.rows_scanned);
  EXPECT_EQ(outcome.total.probes, expected.probes);
  EXPECT_EQ(outcome.total.subqueries, expected.subqueries);
  EXPECT_DOUBLE_EQ(outcome.total.seconds, expected.seconds);
}

TEST_F(ServiceFig3Test, RepeatedBatchIsServedFromCache) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  std::vector<service::ParsedRequest> batch(2);
  batch[0].query = ExampleQuery(core::RankScheme::kFreq);
  batch[0].method = MethodKind::kFullTop;
  batch[1].query = ExampleQuery(core::RankScheme::kDomain);
  batch[1].method = MethodKind::kFastTopKEt;

  auto cold = svc.ExecuteBatch(batch);
  ASSERT_EQ(cold.failures, 0u);
  auto warm = svc.ExecuteBatch(batch);
  ASSERT_EQ(warm.failures, 0u);
  EXPECT_EQ(warm.cache_hits, 2u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(warm.responses[i].result->entries,
              cold.responses[i].result->entries);
  }
}

TEST_F(ServiceFig3Test, TextFrontendMatchesHandBuiltQuery) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto parsed = svc.SubmitLine(
                       "TOPK k=10 method=fast-topk-et scheme=domain "
                       "set1=Protein pred1=DESC.ct('enzyme') "
                       "set2=DNA pred2=TYPE='mRNA'")
                    .get();
  ASSERT_TRUE(parsed.result.ok()) << parsed.result.status();

  auto direct = engine_->Execute(ExampleQuery(core::RankScheme::kDomain),
                                 MethodKind::kFastTopKEt);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(parsed.result->entries, direct->entries);
}

TEST_F(ServiceFig3Test, TripleQueriesAreServedAndCached) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  svc.EnableTripleQueries(&store_, schema_.get(), view_.get());

  engine::TripleQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "Unigene";
  q.entity_set3 = "DNA";
  auto cold = svc.SubmitTriple(q).get();
  ASSERT_TRUE(cold.result.ok()) << cold.result.status();
  EXPECT_FALSE(cold.from_cache);
  EXPECT_FALSE(cold.result->entries.empty());

  auto warm = svc.SubmitTriple(q).get();
  ASSERT_TRUE(warm.result.ok());
  EXPECT_TRUE(warm.from_cache);
  ASSERT_EQ(warm.result->entries.size(), cold.result->entries.size());
  for (size_t i = 0; i < warm.result->entries.size(); ++i) {
    EXPECT_EQ(warm.result->entries[i].tid, cold.result->entries[i].tid);
    EXPECT_EQ(warm.result->entries[i].frequency,
              cold.result->entries[i].frequency);
  }
}

TEST_F(ServiceFig3Test, TriplesAndTwoQueriesRunConcurrently) {
  // 3-queries intern into the shared catalog that 2-queries read; with
  // thread-safe interning they run fully concurrently — no writer lock
  // serializes them (this is the TSAN target for that path). Cache off so
  // everything executes.
  service::ServiceConfig config;
  config.num_threads = 4;
  config.enable_cache = false;
  service::TopologyService svc(engine_.get(), &db_, config);
  svc.EnableTripleQueries(&store_, schema_.get(), view_.get());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&]() {
      for (int i = 0; i < 8; ++i) {
        auto r = svc.Submit(ExampleQuery(core::RankScheme::kDomain),
                            MethodKind::kFullTop)
                     .get();
        if (!r.result.ok()) ++failures;
      }
    });
  }
  for (size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&]() {
      engine::TripleQuery q;
      q.entity_set1 = "Protein";
      q.entity_set2 = "Unigene";
      q.entity_set3 = "DNA";
      for (int i = 0; i < 4; ++i) {
        auto r = svc.SubmitTriple(q).get();
        if (!r.result.ok()) ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ServiceFig3Test, AttachLiveStoreRejectsLegacyEngines) {
  // The raw-pointer Engine constructor wraps a caller-owned store; a live
  // rebuild could never retire it safely, so attaching must fail (and
  // Rebuild stays unavailable).
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  Status attached = svc.AttachLiveStore(schema_.get(), view_.get());
  EXPECT_EQ(attached.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.Rebuild(service::RebuildOptions{}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServiceFig3Test, TripleQueriesWithoutBackendFail) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  engine::TripleQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "Unigene";
  q.entity_set3 = "DNA";
  auto response = svc.SubmitTriple(q).get();
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Live store rebuild (epoch swap behind traffic)
// ---------------------------------------------------------------------------

class LiveRebuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    // The initial store lives only in the handle: once a rebuild retires
    // it and the last snapshot drops, its destructor cleans its tables up.
    auto store = std::make_shared<core::TopologyStore>();
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 2;
    ASSERT_TRUE(builder.BuildAllPairs(config, store.get()).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    for (const auto& [key, pair] : store->pairs()) {
      ASSERT_TRUE(core::PruneFrequentTopologies(&db_, store.get(),
                                                key.first, key.second, prune)
                      .ok());
    }
    handle_ = std::make_shared<core::StoreHandle>(store);
    engine_ = std::make_unique<engine::Engine>(
        &db_, handle_, schema_.get(), view_.get(),
        core::ScoreModel(&store->catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
  }

  engine::TopologyQuery ProteinDnaQuery() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 20;
    return q;
  }

  /// Ground truth for max_path_length = l on an identical fresh database.
  std::vector<engine::ResultEntry> GroundTruth(size_t l,
                                               MethodKind method) const {
    storage::Catalog db;
    biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
    graph::DataGraphView view(db);
    graph::SchemaGraph schema(db);
    core::TopologyStore store;
    core::TopologyBuilder builder(&db, &schema, &view);
    core::BuildConfig config;
    config.max_path_length = l;
    TSB_CHECK(builder.BuildAllPairs(config, &store).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : store.pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      TSB_CHECK(
          core::PruneFrequentTopologies(&db, &store, t1, t2, prune).ok());
    }
    engine::Engine engine(&db, &store, &schema, &view,
                          core::ScoreModel(
                              &store.catalog(),
                              biozon::MakeBiozonDomainKnowledge(ids)));
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 20;
    auto result = engine.Execute(q, method);
    TSB_CHECK(result.ok()) << result.status();
    return result->entries;
  }

  // Declaration order matters for teardown: retired stores drop their
  // tables from db_ when destroyed, so db_ must outlive engine_ (which
  // holds the last snapshot) — members are destroyed in reverse order.
  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  std::shared_ptr<core::StoreHandle> handle_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(LiveRebuildTest, RebuildRequiresAttachedLiveStore) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  service::RebuildOptions options;
  auto result = svc.Rebuild(options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiveRebuildTest, RebuildSwapsEpochBehindLiveTrafficZeroFailures) {
  const std::vector<engine::ResultEntry> pre =
      GroundTruth(2, MethodKind::kFullTop);
  const std::vector<engine::ResultEntry> post =
      GroundTruth(3, MethodKind::kFullTop);
  ASSERT_NE(pre, post) << "the rebuild must be observable";

  service::ServiceConfig config;
  config.num_threads = 4;
  service::TopologyService svc(engine_.get(), &db_, config);
  ASSERT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());

  // Sustained concurrent load across the swap: every response must be
  // pre- or post-epoch consistent, never an error, never a mixture.
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> inconsistent{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        auto response =
            svc.Submit(ProteinDnaQuery(), MethodKind::kFullTop).get();
        if (!response.result.ok()) {
          ++failures;
        } else if (response.result->entries != pre &&
                   response.result->entries != post) {
          ++inconsistent;
        }
        ++served;
      }
    });
  }

  // Ensure the swap really happens behind traffic: clients must be
  // serving before the rebuild starts and keep serving after the swap.
  while (served.load() < 8) std::this_thread::yield();

  service::RebuildOptions options;
  options.build.max_path_length = 3;
  options.prune_threshold = 0;
  options.export_topinfo = true;
  auto stats = svc.Rebuild(options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->table_namespace, "e1.");
  EXPECT_GT(stats->pairs_built, 3u);

  const size_t at_swap = served.load();
  while (served.load() < at_swap + 8) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u);

  // Post-swap requests serve the new epoch (cache was folded into the
  // swap, so no stale entry survives).
  auto after = svc.Execute(ProteinDnaQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(after.result.ok());
  EXPECT_EQ(after.result->entries, post);

  // Fast-Top paths work on the rebuilt epoch (it was pruned).
  auto fast = svc.Execute(ProteinDnaQuery(), MethodKind::kFastTopKEt);
  ASSERT_TRUE(fast.result.ok()) << fast.result.status();

  // New-epoch tables are namespaced; the retired epoch's tables were
  // dropped once its last snapshot was released.
  EXPECT_NE(db_.FindTable("e1.AllTops_Protein_DNA"), nullptr);
  EXPECT_EQ(db_.FindTable("AllTops_Protein_DNA"), nullptr);
  EXPECT_NE(db_.FindTable("TopInfo"), nullptr);
  EXPECT_EQ(svc.Metrics().total_errors, 0u);
}

TEST_F(LiveRebuildTest, TriplesFollowTheLiveEpoch) {
  service::ServiceConfig config;
  config.num_threads = 2;
  service::TopologyService svc(engine_.get(), &db_, config);
  ASSERT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());

  engine::TripleQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "Unigene";
  q.entity_set3 = "DNA";
  auto before = svc.SubmitTriple(q).get();
  ASSERT_TRUE(before.result.ok()) << before.result.status();

  service::RebuildOptions options;
  options.build.max_path_length = 3;
  auto stats = svc.Rebuild(options);
  ASSERT_TRUE(stats.ok()) << stats.status();

  // The triple cache was invalidated with the swap; the re-run executes
  // against the new epoch and interns into the new catalog.
  auto after = svc.SubmitTriple(q).get();
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_FALSE(after.from_cache);
  for (const auto& entry : after.result->entries) {
    EXPECT_LE(entry.tid,
              static_cast<core::Tid>(
                  handle_->Snapshot()->catalog().size()));
  }
}

TEST_F(LiveRebuildTest, BackToBackRebuildsAdvanceEpochsAndDropOldTables) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  ASSERT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());

  for (uint64_t round = 1; round <= 3; ++round) {
    service::RebuildOptions options;
    options.build.max_path_length = 2 + (round % 2);
    auto stats = svc.Rebuild(options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->epoch, round);
    // A query both validates the epoch and releases the previous snapshot.
    auto response = svc.Execute(ProteinDnaQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(response.result.ok());
  }
  // Only the newest epoch's tables remain.
  EXPECT_EQ(db_.FindTable("AllTops_Protein_DNA"), nullptr);
  EXPECT_EQ(db_.FindTable("e1.AllTops_Protein_DNA"), nullptr);
  EXPECT_EQ(db_.FindTable("e2.AllTops_Protein_DNA"), nullptr);
  EXPECT_NE(db_.FindTable("e3.AllTops_Protein_DNA"), nullptr);
}

// ---------------------------------------------------------------------------
// Request parser
// ---------------------------------------------------------------------------

class ParserFig3Test : public ServiceFig3Test {};

TEST_F(ParserFig3Test, ParsesMethodsSchemesAndPredicates) {
  service::RequestParser parser(&db_);
  auto req = parser.Parse(
      "TOPK k=3 method=full-topk-opt scheme=rare set1=Protein "
      "pred1=DESC.ct('enzyme')&&ID.between(30,40) set2=DNA "
      "pred2=TYPE='mRNA' exclude_weak=1");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->method, MethodKind::kFullTopKOpt);
  EXPECT_EQ(req->query.scheme, core::RankScheme::kRare);
  EXPECT_EQ(req->query.k, 3u);
  EXPECT_TRUE(req->query.exclude_weak);
  EXPECT_EQ(req->query.entity_set1, "Protein");
  EXPECT_EQ(req->query.entity_set2, "DNA");
  ASSERT_NE(req->query.pred1, nullptr);
  ASSERT_NE(req->query.pred2, nullptr);

  // The conjunction really is AND: it must filter like the hand-built one.
  auto hand = storage::MakeAnd(
      storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(), "DESC",
                                   "enzyme"),
      storage::MakeInt64Between(db_.GetTable("Protein")->schema(), "ID", 30,
                                40));
  EXPECT_EQ(storage::FilterRows(*db_.GetTable("Protein"), *req->query.pred1),
            storage::FilterRows(*db_.GetTable("Protein"), *hand));
}

TEST_F(ParserFig3Test, TopVerbDefaultsToFullResultMethod) {
  service::RequestParser parser(&db_);
  auto req = parser.Parse("TOP set1=Protein set2=DNA");
  ASSERT_TRUE(req.ok());
  EXPECT_FALSE(engine::MethodIsTopK(req->method));
  EXPECT_EQ(req->query.pred1, nullptr);
  EXPECT_EQ(req->query.pred2, nullptr);
}

TEST_F(ParserFig3Test, QuotedValuesMayContainSpaces) {
  service::RequestParser parser(&db_);
  auto req = parser.Parse(
      "TOPK set1=Protein pred1=DESC.ct('binding protein') set2=DNA");
  ASSERT_TRUE(req.ok()) << req.status();
  ASSERT_NE(req->query.pred1, nullptr);
}

TEST_F(ParserFig3Test, RejectsMalformedRequests) {
  service::RequestParser parser(&db_);
  EXPECT_FALSE(parser.Parse("").ok());
  EXPECT_FALSE(parser.Parse("FROBNICATE set1=Protein set2=DNA").ok());
  EXPECT_FALSE(parser.Parse("TOPK set1=Protein").ok());  // Missing set2.
  EXPECT_FALSE(parser.Parse("TOPK set1=Protein set2=DNA bogus_key=1").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Protein set2=DNA method=warp-speed").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Protein pred1=NOCOL.ct('x') set2=DNA").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Martian set2=DNA pred1=DESC.ct('x')").ok());
  // Verb/method mismatches.
  EXPECT_FALSE(
      parser.Parse("TOP method=fast-topk set1=Protein set2=DNA").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK method=full-top set1=Protein set2=DNA").ok());
  // A '==' typo must error, not silently match the literal "='...'".
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Protein set2=DNA pred2=TYPE=='mRNA'").ok());
}

TEST_F(ParserFig3Test, ParseErrorsComeBackThroughSubmitLine) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto response = svc.SubmitLine("TOPK set1=Protein").get();
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(ServiceFig3Test, MetricsTrackPerMethodTraffic) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  for (int i = 0; i < 3; ++i) {
    auto r = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                         MethodKind::kFullTop);
    ASSERT_TRUE(r.result.ok());
  }
  auto r = svc.Execute(ExampleQuery(core::RankScheme::kFreq),
                       MethodKind::kFastTop);
  ASSERT_TRUE(r.result.ok());

  auto snap = svc.Metrics();
  EXPECT_EQ(snap.total_requests, 4u);
  EXPECT_EQ(snap.total_cache_hits, 2u);  // Runs 2 and 3 of Full-Top.
  ASSERT_EQ(snap.methods.size(), 2u);
  for (const auto& row : snap.methods) {
    if (row.method == "Full-Top") {
      EXPECT_EQ(row.requests, 3u);
      EXPECT_EQ(row.cache_hits, 2u);
    } else {
      EXPECT_EQ(row.method, "Fast-Top");
      EXPECT_EQ(row.requests, 1u);
    }
    EXPECT_GE(row.latency.Quantile(0.95), row.latency.Quantile(0.50));
    EXPECT_EQ(row.latency.count(), row.requests);
  }
  EXPECT_FALSE(snap.ToString().empty());
}

TEST(ServiceMetricsTest, LatencyStatsComeFromTheExactHistogram) {
  // count/mean/max are exact; quantiles are the upper bound of the 2^¼
  // bucket holding the rank, so never below it and at most ~19% above.
  service::ServiceMetrics metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.RecordRequest(0, 1e-3 * i, /*cache_hit=*/false, /*ok=*/true);
  }
  for (int i = 0; i < 5000; ++i) {
    metrics.RecordClassLatency(0, 0.002);
  }
  const service::MetricsSnapshot snap = metrics.Snapshot();
  ASSERT_EQ(snap.methods.size(), 1u);
  const obs::LatencyHistogram& method = snap.methods[0].latency;
  EXPECT_EQ(method.count(), 100u);
  EXPECT_DOUBLE_EQ(method.max(), 0.100);
  EXPECT_NEAR(method.sum() / method.count(), 0.0505, 1e-12);
  const double kBucket = std::pow(2.0, 0.25);
  EXPECT_GE(method.Quantile(0.50), 0.050);
  EXPECT_LE(method.Quantile(0.50), 0.051 * kBucket);
  EXPECT_GE(method.Quantile(0.95), 0.095);
  EXPECT_LE(method.Quantile(0.95), 0.096 * kBucket);

  // Past any sample-size cap the count stays exact and a constant stream
  // reads back within one bucket.
  const obs::LatencyHistogram& cls = snap.classes[0].latency;
  EXPECT_EQ(cls.count(), 5000u);
  EXPECT_GE(cls.Quantile(0.50), 0.002);
  EXPECT_LE(cls.Quantile(0.99), 0.002 * kBucket);
}

}  // namespace
}  // namespace tsb
