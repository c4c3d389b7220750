// sharded_service: the full serving path. A service::TopologyService runs
// over a shard::ScatterGatherExecutor with N = 2 shards; sub-queries for
// the remote shard travel through replica::ReplicaSetTransport (R = 1,
// SocketReplicaChannel over Unix-domain sockets) to a topobench_shard
// process this workload starts itself; shard 0, the designated shard, runs
// in the frontend. Closed-loop clients submit on the
// native wire surface (Submit(WireRequest, StreamSink&)). The stream is a
// seeded Zipf draw over a fixed pool of distinct requests, and the result
// cache budget is below the pool's result working set, so the stream is a
// steady mix of hits, misses and evictions.
//
// Oracle: every response, hit or miss, must equal a single-store engine
// over a separately generated world, and no response may be partial.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/frame_conn.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "storage/predicate.h"
#include "wire/codec.h"
#include "world.h"

namespace perfbench {

using namespace tsb;
using engine::MethodKind;

namespace {

constexpr double kScale = 1.0;
constexpr size_t kShards = 2;
constexpr size_t kClients = 3;
constexpr size_t kServiceThreads = 4;
constexpr size_t kRoundRequests = 100;  // Per client round.
constexpr size_t kWarmupRounds = 3;     // Per client, before the window.
constexpr double kZipfSkew = 0.9;
/// Which requests are popular is fixed; the seed draws the stream.
constexpr uint64_t kPopularitySeed = 7;
/// Result-cache budget, below the pool's result working set (a traced run
/// prints both, as the service's cache accounts them).
constexpr size_t kCacheBytes = 1u << 20;
/// Traced runs replay at most this many distinct missed requests directly
/// against the executor, the single-store engine, the transport and codec.
constexpr size_t kTraceReplays = 300;
/// Traced runs record the client spans of one request in this many.
constexpr uint64_t kClientSpanSample = 16;

struct PoolRequest {
  engine::TopologyQuery query;
  MethodKind method = MethodKind::kFullTop;
};

/// Sorted values of an entity table's ID column.
std::vector<int64_t> SortedIds(const storage::Catalog& db,
                               const std::string& table_name) {
  const storage::Table* table = db.GetTable(table_name);
  const size_t col = *table->schema().FindColumn("ID");
  std::vector<int64_t> ids;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    ids.push_back(table->GetInt64(r, col));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// `count` ID.between windows, each covering `width` of the IDs, with
/// starts spread evenly over the rest.
std::vector<std::pair<int64_t, int64_t>> Windows(
    const std::vector<int64_t>& ids, size_t count, double width) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const size_t span = static_cast<size_t>(width * ids.size());
  for (size_t i = 0; i < count; ++i) {
    const size_t start =
        (ids.size() - span - 1) * i / std::max<size_t>(1, count - 1);
    out.emplace_back(ids[start], ids[start + span]);
  }
  return out;
}

/// The request pool: ID.between windows on both sides x methods x schemes
/// x k (k varies only for top-k methods). Deterministic for one world, so
/// the frontend and the oracle world build identical pools.
std::vector<PoolRequest> MakePool(const storage::Catalog& db) {
  const auto protein = Windows(SortedIds(db, "Protein"), 12, 0.3);
  const auto interaction = Windows(SortedIds(db, "Interaction"), 4, 0.5);
  const storage::TableSchema& ps = db.GetTable("Protein")->schema();
  const storage::TableSchema& is = db.GetTable("Interaction")->schema();
  const core::RankScheme schemes[] = {core::RankScheme::kFreq,
                                      core::RankScheme::kDomain,
                                      core::RankScheme::kRare};
  std::vector<PoolRequest> pool;
  for (const auto& [plo, phi] : protein) {
    for (const auto& [ilo, ihi] : interaction) {
      for (core::RankScheme scheme : schemes) {
        for (const BenchMethod& method : kMethods) {
          for (size_t k : {size_t{10}, size_t{20}}) {
            if (!engine::MethodIsTopK(method.kind) && k != 10) continue;
            PoolRequest req;
            req.query.entity_set1 = "Protein";
            req.query.pred1 = storage::MakeInt64Between(ps, "ID", plo, phi);
            req.query.entity_set2 = "Interaction";
            req.query.pred2 = storage::MakeInt64Between(is, "ID", ilo, ihi);
            req.query.scheme = scheme;
            req.query.k = k;
            req.method = method.kind;
            pool.push_back(std::move(req));
          }
        }
      }
    }
  }
  return pool;
}

/// Zipf(kZipfSkew) over pool ranks, ranks mapped to pool entries by a
/// fixed permutation.
class ZipfPicker {
 public:
  explicit ZipfPicker(size_t n) : cdf_(n), by_rank_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    std::iota(by_rank_.begin(), by_rank_.end(), 0);
    std::mt19937_64 rng(kPopularitySeed);
    std::shuffle(by_rank_.begin(), by_rank_.end(), rng);
  }

  size_t Pick(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    const size_t rank = std::min<size_t>(
        cdf_.size() - 1,
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return by_rank_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> by_rank_;
};

/// The shard with a server of its own. ShardRouter designates the first
/// shard with rows and ScatterGatherExecutor runs the designated shard in
/// process, so sub-queries only ever travel to shard 1; shard 0's transport
/// slot is a RefusingChannel.
constexpr size_t kRemoteShard = 1;

/// Transport slot of the in-process shard. A sub-query that reached it
/// would come back as an error, which the run counts and reports.
class RefusingChannel : public replica::ReplicaChannel {
 public:
  Result<std::string> RoundTrip(const std::string&, const net::Deadline&,
                                net::RoundTripTelemetry*) override {
    return Status::FailedPrecondition("shard 0 is served in process");
  }
  std::string Describe() const override { return "in-process shard 0"; }
};

/// The shard server's pid, mirrored for the abort path: TSB_CHECK aborts
/// without running destructors, so a SIGABRT handler reaps the server.
volatile pid_t g_server_pid = 0;

void KillServerOnAbort(int) {
  if (g_server_pid > 0) ::kill(g_server_pid, SIGKILL);
  ::signal(SIGABRT, SIG_DFL);
  ::raise(SIGABRT);
}

std::string SelfDir() {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  TSB_CHECK(n > 0) << "cannot resolve /proc/self/exe";
  exe[n] = '\0';
  std::string dir(exe);
  dir.resize(dir.find_last_of('/'));
  return dir;
}

/// The remote shard's server process: started in the constructor, stopped
/// (SIGTERM, then waited for) in the destructor.
class ShardServerProcess {
 public:
  explicit ShardServerProcess(const std::string& out_dir)
      : path_(out_dir + "/shard" + std::to_string(::getpid()) + "_" +
              std::to_string(kRemoteShard) + ".sock") {
    ::signal(SIGABRT, KillServerOnAbort);
    const std::string binary = SelfDir() + "/topobench_shard";
    ::unlink(path_.c_str());
    const std::string shard = std::to_string(kRemoteShard);
    const std::string shards = std::to_string(kShards);
    const std::string scale = std::to_string(kScale);
    pid_ = ::fork();
    TSB_CHECK(pid_ >= 0) << "fork failed";
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::execl(binary.c_str(), binary.c_str(), "--shard", shard.c_str(),
              "--num-shards", shards.c_str(), "--scale", scale.c_str(),
              "--uds", path_.c_str(), static_cast<char*>(nullptr));
      std::perror(("exec " + binary).c_str());
      ::_exit(127);
    }
    g_server_pid = pid_;
  }

  ~ShardServerProcess() {
    ::kill(pid_, SIGTERM);
    ::waitpid(pid_, nullptr, 0);
    g_server_pid = 0;
    ::unlink(path_.c_str());
  }

  ShardServerProcess(const ShardServerProcess&) = delete;
  ShardServerProcess& operator=(const ShardServerProcess&) = delete;

  /// Blocks until the server accepts connections (false after `timeout`).
  bool WaitListening(double timeout) const {
    Stopwatch watch;
    while (watch.ElapsedSeconds() < timeout) {
      if (net::FrameConn::ConnectUnix(path_, net::DeadlineAfter(0.25)).ok()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  double PeakRssMb() const { return ProcessPeakRssMb(pid_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  pid_t pid_ = -1;
};

struct ClientLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SlicedLatencies latencies{kSliceSeconds};  // Inside the window.
  std::vector<double> miss_overhead_ms;      // Inside the window.
  std::map<size_t, std::vector<engine::ResultEntry>> first_seen;
  std::set<size_t> missed;  // Pool indexes served by the executor.
  std::vector<std::string> errors;
};

void WireRequestFor(const PoolRequest& req, uint64_t id,
                    wire::WireRequest* out) {
  out->id = id;
  out->query = req.query;
  out->method = req.method;
}

}  // namespace

RunResult RunShardedService(const RunOptions& options) {
  RunResult result;
  SpanRecorder spans(options.trace);
  SpanRecorder unsampled(false);

  // The shard server builds its world while the frontend builds its own.
  Stopwatch fleet_watch;
  ShardServerProcess server(options.out_dir);

  WorldOptions world_options;
  world_options.scale = kScale;
  world_options.num_shards = kShards;
  std::unique_ptr<World> world = MakeWorld(world_options);
  shard::ScatterGatherExecutor& executor = *world->executor;

  std::vector<std::vector<std::unique_ptr<replica::ReplicaChannel>>> channels(
      kShards);
  for (size_t s = 0; s < kShards; ++s) {
    if (s != kRemoteShard) {
      channels[s].push_back(std::make_unique<RefusingChannel>());
      continue;
    }
    net::EndpointClientConfig client_config;
    client_config.backoff_initial_seconds = 0.002;
    client_config.backoff_max_seconds = 0.05;
    channels[s].push_back(std::make_unique<replica::SocketReplicaChannel>(
        net::ShardEndpoint::Unix(server.path()), client_config));
  }
  replica::ReplicaSetTransport transport(std::move(channels),
                                         replica::ReplicaSetConfig{},
                                         executor.transport_metrics());
  executor.set_transport(&transport);

  const std::vector<PoolRequest> pool = MakePool(world->db);

  // Ready when the shard server has answered one query frame.
  if (!server.WaitListening(120.0)) {
    result.Fail("shard server never listened");
    return result;
  }
  {
    wire::WireRequest probe;
    WireRequestFor(pool[0], 0, &probe);
    std::string frame;
    wire::EncodeQueryRequest(probe, &frame);
    auto reply = transport.Send(kRemoteShard, frame).get();
    if (!reply.ok() || !wire::DecodeQueryResponse(reply.value()).ok()) {
      result.Fail("shard server did not answer");
      return result;
    }
  }
  const double fleet_ready_s = fleet_watch.ElapsedSeconds();

  service::ServiceConfig config;
  config.num_threads = kServiceThreads;
  config.cache.max_bytes = kCacheBytes;
  config.enable_cache = options.cache;
  const size_t num_clients = options.clients > 0 ? options.clients : kClients;
  service::TopologyService service(&executor, &world->db, config);
  const double setup_s = SecondsSinceStart();

  // Closed-loop clients, whole rounds only: kWarmupRounds to fill the
  // cache, then rounds until the window closes.
  const ZipfPicker picker(pool.size());
  std::vector<ClientLog> logs(num_clients);
  std::atomic<uint64_t> next_id{1};
  // `window` is null during the warm-up rounds.
  auto client = [&](size_t c, size_t rounds, const Stopwatch* window) {
    ClientLog& log = logs[c];
    std::mt19937_64 rng(options.seed * 7919 + c + 1000 * rounds);
    ReplySink sink;
    for (size_t round = 0; window != nullptr
                               ? window->ElapsedSeconds() < options.seconds
                               : round < rounds;
         ++round) {
      for (size_t i = 0; i < kRoundRequests; ++i) {
        const size_t idx = picker.Pick(&rng);
        wire::WireRequest request;
        WireRequestFor(pool[idx], next_id.fetch_add(1), &request);
        Stopwatch watch;
        wire::WireResponse reply;
        {
          SpanRecorder* recorder =
              request.id % kClientSpanSample == 0 ? &spans : &unsampled;
          ScopedSpan root(recorder, "client.request", 0, request.id);
          ScopedSpan call(recorder, "service.submit", root.id(), request.id);
          service.Submit(request, sink);
          reply = sink.Wait();
        }
        const double ms = watch.ElapsedMillis();
        ++log.attempted;
        if (!reply.error.ok()) {
          ++log.failed;
          continue;
        }
        if (options.corrupt == "partial" && c == 0 && log.attempted == 1) {
          reply.result.partial = true;
        }
        if (options.corrupt == "sharded_identity" && c == 0 &&
            log.attempted == 1 && !reply.result.entries.empty()) {
          reply.result.entries[0].tid += 1;
        }
        if (reply.result.partial) {
          log.errors.push_back("partial response for pool request " +
                               std::to_string(idx));
        }
        auto [it, inserted] =
            log.first_seen.emplace(idx, reply.result.entries);
        if (!inserted && it->second != reply.result.entries) {
          log.errors.push_back("pool request " + std::to_string(idx) +
                               " answered differently on repeat");
        }
        if (!reply.from_cache) log.missed.insert(idx);
        if (window != nullptr) {
          log.latencies.Add(window->ElapsedSeconds(), ms);
          if (!reply.from_cache) {
            log.miss_overhead_ms.push_back(
                ms - 1e3 * reply.result.stats.seconds);
          }
        }
      }
    }
  };
  auto run_clients = [&](size_t rounds, const Stopwatch* window) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < num_clients; ++c) {
      threads.emplace_back(client, c, rounds, window);
    }
    for (std::thread& t : threads) t.join();
  };
  run_clients(kWarmupRounds, nullptr);
  const service::QueryCache::Stats cache_before = service.CacheStats();
  Stopwatch window;
  run_clients(0, &window);
  const service::QueryCache::Stats cache_after = service.CacheStats();
  const double peak_rss_mb = SelfPeakRssMb() + server.PeakRssMb();
  service.Shutdown();

  std::vector<SlicedLatencies> latencies;
  std::vector<double> overhead_ms;
  std::set<size_t> seen, missed;
  for (ClientLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    for (const std::string& error : log.errors) result.Fail(error);
    latencies.push_back(std::move(log.latencies));
    overhead_ms.insert(overhead_ms.end(), log.miss_overhead_ms.begin(),
                       log.miss_overhead_ms.end());
    for (const auto& [idx, entries] : log.first_seen) seen.insert(idx);
    missed.insert(log.missed.begin(), log.missed.end());
  }

  // Oracle: a single-store engine over a separately generated world.
  WorldOptions oracle_options;
  oracle_options.scale = kScale;
  std::unique_ptr<World> oracle = MakeWorld(oracle_options);
  const std::vector<PoolRequest> oracle_pool = MakePool(oracle->db);
  std::map<size_t, std::vector<engine::ResultEntry>> truth;
  for (size_t idx : seen) {
    auto answer =
        oracle->engine->Execute(oracle_pool[idx].query, oracle_pool[idx].method);
    if (!answer.ok()) {
      result.Fail("oracle failed on pool request " + std::to_string(idx));
      continue;
    }
    truth[idx] = std::move(answer->entries);
  }
  for (const ClientLog& log : logs) {
    for (const auto& [idx, entries] : log.first_seen) {
      auto it = truth.find(idx);
      if (it != truth.end() && it->second != entries) {
        result.Fail("pool request " + std::to_string(idx) +
                    " differs from the single-store oracle");
      }
    }
  }

  const WindowMetrics e2e =
      Summarize(&latencies, FullSlices(options.seconds));
  if (!options.trace) {
    result.metrics["setup_s"] = setup_s;
    result.metrics["query_p50_ms"] = e2e.p50_ms;
    result.metrics["query_p95_ms"] = e2e.p95_ms;
    result.metrics["queries_per_s"] = e2e.per_second;
    result.metrics["peak_rss_mb"] = peak_rss_mb;
    return result;
  }

  std::map<std::string, double>& m = result.metrics;
  m["biozon.generate_s"] = world->times.generate_s;
  m["core.build_s"] = world->times.build_s;
  m["core.prune_s"] = world->times.prune_s;
  m["engine.prepare_indexes_s"] = world->times.indexes_s;
  m["net.fleet_ready_s"] = fleet_ready_s;
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t misses = cache_after.misses - cache_before.misses;
  m["service.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  m["service.cache_evictions"] =
      static_cast<double>(cache_after.evictions - cache_before.evictions);
  m["service.overhead_ms"] = Median(overhead_ms);
  m["trace.query_p50_ms"] = e2e.p50_ms;

  // Direct replays of missed requests through each layer's public calls.
  std::vector<double> tax_ms, encode_us, decode_us, rtt_us, bytes;
  size_t replayed = 0;
  for (size_t idx : missed) {
    if (replayed++ == kTraceReplays) break;
    const PoolRequest& req = pool[idx];
    const uint64_t request = 1000000000ull + idx;
    uint64_t sg_span = 0, single_span = 0;
    {
      ScopedSpan span(&spans, "shard.scatter_gather", 0, request);
      sg_span = span.id();
      auto answer = executor.Execute(req.query, req.method);
      if (!answer.ok()) result.Fail("direct scatter-gather failed");
    }
    {
      ScopedSpan span(&spans, "engine.execute", 0, request);
      single_span = span.id();
      auto answer = oracle->engine->Execute(oracle_pool[idx].query,
                                            oracle_pool[idx].method);
      if (!answer.ok()) result.Fail("direct single-store execute failed");
    }
    tax_ms.push_back(spans.DurationMs(sg_span) - spans.DurationMs(single_span));

    // The sub-query the executor sends the remote shard, through the
    // transport and the codec's public functions.
    wire::WireRequest sub;
    WireRequestFor(req, idx, &sub);
    sub.options.skip_pruned_checks = true;
    std::string request_frame, reencoded;
    uint64_t encode_span = 0, send_span = 0, decode_span = 0, reencode_span = 0;
    Result<std::string> reply = Status::Internal("not sent");
    {
      ScopedSpan span(&spans, "wire.encode", 0, request);
      encode_span = span.id();
      wire::EncodeQueryRequest(sub, &request_frame);
    }
    {
      ScopedSpan span(&spans, "net.send", 0, request);
      send_span = span.id();
      reply = transport.Send(kRemoteShard, request_frame).get();
    }
    if (!reply.ok()) {
      result.Fail("direct transport round trip failed");
      continue;
    }
    bool decoded = false;
    Result<wire::WireResponse> response = Status::Internal("not decoded");
    {
      ScopedSpan span(&spans, "wire.decode", 0, request);
      decode_span = span.id();
      response = wire::DecodeQueryResponse(reply.value());
      decoded = wire::DecodeQueryRequest(request_frame, world->db).ok() &&
                response.ok();
    }
    if (!decoded) {
      result.Fail("wire decode failed on a served frame");
      continue;
    }
    {
      ScopedSpan span(&spans, "wire.encode", 0, request);
      reencode_span = span.id();
      wire::EncodeQueryResponse(response.value(), &reencoded);
    }
    encode_us.push_back(1e3 * (spans.DurationMs(encode_span) +
                               spans.DurationMs(reencode_span)));
    decode_us.push_back(1e3 * spans.DurationMs(decode_span));
    rtt_us.push_back(1e3 * spans.DurationMs(send_span));
    bytes.push_back(
        static_cast<double>(request_frame.size() + reply.value().size()));
  }
  m["shard.scatter_gather_ms"] = Median(spans.DurationsMs("shard.scatter_gather"));
  m["shard.tax_ms"] = Median(tax_ms);
  m["net.rtt_us"] = Median(rtt_us);
  m["wire.encode_us"] = Median(encode_us);
  m["wire.decode_us"] = Median(decode_us);
  m["wire.bytes_per_query"] = Median(bytes);
  std::printf("cache: %zu entries, %zu bytes (budget %zu), %zu distinct "
              "requests seen of %zu\n",
              cache_after.entries, cache_after.bytes, kCacheBytes,
              seen.size(), pool.size());

  // The pool's result working set as the service's cache accounts it: a
  // single-store service whose cache holds everything answers the seen
  // requests, then the rest of the pool.
  {
    service::ServiceConfig sizing_config;
    sizing_config.num_threads = 1;
    service::TopologyService sizing(oracle->engine.get(), &oracle->db,
                                    sizing_config);
    ReplySink sink;
    auto answer_all = [&](bool seen_ones) {
      for (size_t idx = 0; idx < oracle_pool.size(); ++idx) {
        if ((seen.count(idx) > 0) != seen_ones) continue;
        wire::WireRequest request;
        WireRequestFor(oracle_pool[idx], idx + 1, &request);
        sizing.Submit(request, sink);
        sink.Wait();
      }
    };
    answer_all(true);
    const service::QueryCache::Stats seen_set = sizing.CacheStats();
    answer_all(false);
    const service::QueryCache::Stats pool_set = sizing.CacheStats();
    sizing.Shutdown();
    std::printf("result working set: %zu bytes over the %zu requests seen, "
                "%zu bytes over the whole pool of %zu (%zu cached)\n",
                seen_set.bytes, seen.size(), pool_set.bytes, pool.size(),
                pool_set.entries);
  }
  FinishTrace(options, spans, &result);
  return result;
}

}  // namespace perfbench
