// Cross-process sharding end to end: spawn N shard-server processes
// (tools/shard_server) listening on Unix-domain sockets, point a
// replica::ReplicaSetTransport at them (one replica per shard, R=1, over
// pooled socket connections), and run the full
// nine-method byte-identity check through real process boundaries — then
// kill one server to show graceful degradation (partial=true) and
// restart it to show reconnect recovery.
//
// Each server process builds its own replica of the Figure-3 database and
// the complete sharded precompute (deterministic, so TIDs and replicated
// global frequency maps agree across processes), then serves only its
// shard's slice. The frontend keeps its own shard set too: the designated
// shard of every query runs inline (it alone carries the pruned online
// checks), and only the non-designated sub-queries cross the wire.
//
// What to look for in the output:
//   - nine methods, each byte-identical across direct / in-process /
//     socket,
//   - the per-shard transport telemetry (bytes, RTT, reconnects),
//   - SIGKILL of one server answering with a ranked partial result,
//   - the restarted server healing the pool (reconnects > 0).
//
// Build & run:  ./build/examples/cross_process_shards
// (finds the shard_server binary next to itself; override with argv[1])

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "net/frame_conn.h"
#include "replica/replica_set.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"

namespace {

using namespace tsb;

constexpr size_t kShards = 4;

/// Mirror of the spawned server pids for the abort path: TSB_CHECK exits
/// via std::abort (atexit handlers do not run), so a SIGABRT handler is
/// the only hook that keeps a failed run from leaking four daemons.
volatile pid_t g_server_pids[kShards] = {0};

void KillServersOnAbort(int) {
  for (size_t i = 0; i < kShards; ++i) {
    const pid_t pid = g_server_pids[i];
    if (pid > 0) ::kill(pid, SIGKILL);  // Async-signal-safe.
  }
  ::signal(SIGABRT, SIG_DFL);
  ::raise(SIGABRT);
}

/// The shard_server binary lives in <exe_dir>/../tools/.
std::string FindServerBinary(const char* argv0_override) {
  if (argv0_override != nullptr) return argv0_override;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  TSB_CHECK(n > 0) << "cannot resolve /proc/self/exe";
  exe[n] = '\0';
  std::string dir(exe);
  dir.resize(dir.find_last_of('/'));
  return dir + "/../tools/shard_server";
}

pid_t SpawnServer(const std::string& binary, size_t shard,
                  const std::string& uds) {
  const pid_t pid = ::fork();
  TSB_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    const std::string shard_flag = "--shard=" + std::to_string(shard);
    const std::string n_flag = "--num-shards=" + std::to_string(kShards);
    const std::string uds_flag = "--uds=" + uds;
    ::execl(binary.c_str(), binary.c_str(), shard_flag.c_str(),
            n_flag.c_str(), uds_flag.c_str(), (char*)nullptr);
    std::perror(("exec " + binary).c_str());
    ::_exit(127);
  }
  g_server_pids[shard] = pid;
  return pid;
}

/// Polls until the server accepts connections (it builds its precompute
/// first) or the timeout passes.
bool WaitForServer(const std::string& uds, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    auto conn = net::FrameConn::ConnectUnix(uds, net::DeadlineAfter(0.25));
    if (conn.ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // 1. The frontend's own world: database, reference engine, shard set.
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig build;
  build.max_path_length = 3;
  core::TopologyStore reference;
  TSB_CHECK(builder.BuildAllPairs(build, &reference).ok());
  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  for (const auto& [key, pair] : reference.pairs()) {
    TSB_CHECK(core::PruneFrequentTopologies(&db, &reference, key.first,
                                            key.second, prune)
                  .ok());
  }
  engine::Engine single(&db, &reference, &schema, &view,
                        core::ScoreModel(
                            &reference.catalog(),
                            biozon::MakeBiozonDomainKnowledge(ids)));

  auto sharded = std::make_shared<shard::ShardedTopologyStore>(kShards);
  core::BuildConfig sharded_build = build;
  sharded_build.table_namespace = "x.";
  TSB_CHECK(sharded->Build(&builder, sharded_build).ok());
  for (size_t i = 0; i < kShards; ++i) {
    auto snapshot = sharded->Snapshot(i);
    for (const auto& [key, pair] : snapshot->pairs()) {
      TSB_CHECK(core::PruneFrequentTopologies(&db, snapshot.get(),
                                              key.first, key.second, prune)
                    .ok());
    }
  }
  shard::ScatterGatherExecutor executor(
      &db, sharded, &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));

  // 2. Spawn one shard-server process per shard, each on its own UDS.
  ::signal(SIGABRT, KillServersOnAbort);  // No daemon leaks on TSB_CHECK.
  const std::string binary = FindServerBinary(argc > 1 ? argv[1] : nullptr);
  std::printf("spawning %zu shard servers (%s)\n", kShards, binary.c_str());
  std::vector<std::string> uds_paths;
  std::vector<pid_t> pids;
  std::vector<net::ShardEndpoint> endpoints;
  for (size_t i = 0; i < kShards; ++i) {
    uds_paths.push_back("/tmp/tsb_xps_" + std::to_string(::getpid()) + "_" +
                        std::to_string(i) + ".sock");
    pids.push_back(SpawnServer(binary, i, uds_paths.back()));
    endpoints.push_back(net::ShardEndpoint::Unix(uds_paths.back()));
  }
  for (size_t i = 0; i < kShards; ++i) {
    TSB_CHECK(WaitForServer(uds_paths[i], 30.0))
        << "shard server " << i << " never came up";
    std::printf("  shard %zu ready on unix:%s\n", i, uds_paths[i].c_str());
  }

  auto kill_all = [&pids]() {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  };

  // 3. The nine-method byte-identity check, through real processes.
  net::EndpointClientConfig client_config;
  client_config.backoff_initial_seconds = 0.005;
  client_config.backoff_max_seconds = 0.1;
  replica::ReplicaSetTransport transport(
      replica::SocketShardChannels(endpoints, client_config),
      replica::ReplicaSetConfig{}, executor.transport_metrics());

  engine::TopologyQuery query;
  query.entity_set1 = "Protein";
  query.pred1 = storage::MakeContainsKeyword(
      db.GetTable("Protein")->schema(), "DESC", "enzyme");
  query.entity_set2 = "DNA";
  query.scheme = core::RankScheme::kFreq;
  query.k = 10;

  const std::vector<engine::MethodKind> methods = {
      engine::MethodKind::kSql,         engine::MethodKind::kFullTop,
      engine::MethodKind::kFastTop,     engine::MethodKind::kFullTopK,
      engine::MethodKind::kFastTopK,    engine::MethodKind::kFullTopKEt,
      engine::MethodKind::kFastTopKEt,  engine::MethodKind::kFullTopKOpt,
      engine::MethodKind::kFastTopKOpt,
  };
  std::printf("\nnine-method identity, direct vs in-process vs socket:\n");
  for (engine::MethodKind method : methods) {
    auto direct = single.Execute(query, method);
    auto in_process = executor.Execute(query, method);
    executor.set_transport(&transport);
    auto socket = executor.Execute(query, method);
    executor.set_transport(nullptr);
    TSB_CHECK(direct.ok() && in_process.ok() && socket.ok())
        << engine::MethodKindToString(method);
    const bool identical = socket->entries == direct->entries &&
                           socket->entries == in_process->entries;
    std::printf("  %-14s %2zu entries  %s\n",
                engine::MethodKindToString(method), socket->entries.size(),
                identical ? "identical" : "<< MISMATCH");
    TSB_CHECK(identical) << "cross-process ranking diverged for "
                         << engine::MethodKindToString(method);
    TSB_CHECK(!socket->partial);
  }

  // 4. Kill one server: queries degrade to ranked partials, not errors.
  executor.set_transport(&transport);
  auto clean = executor.Execute(query, engine::MethodKind::kFullTop);
  TSB_CHECK(clean.ok());
  size_t victim = SIZE_MAX;
  for (size_t s = 0; s < kShards && victim == SIZE_MAX; ++s) {
    ::kill(pids[s], SIGKILL);
    ::waitpid(pids[s], nullptr, 0);
    pids[s] = -1;
    g_server_pids[s] = 0;
    auto degraded = executor.Execute(query, engine::MethodKind::kFullTop);
    TSB_CHECK(degraded.ok()) << "query failed instead of degrading";
    if (degraded->partial) {
      victim = s;
      std::printf(
          "\nSIGKILL shard %zu: query answered partial=true with %zu/%zu "
          "entries\n  plan: %s\n",
          s, degraded->entries.size(), clean->entries.size(),
          degraded->stats.plan.c_str());
    } else {
      // The killed server was the designated shard (served inline) or
      // unrouted; bring a replacement up and try the next one.
      pids[s] = SpawnServer(binary, s, uds_paths[s]);
      TSB_CHECK(WaitForServer(uds_paths[s], 30.0));
    }
  }
  TSB_CHECK(victim != SIZE_MAX);

  // 5. Restart it: the transport reconnects and full answers resume.
  pids[victim] = SpawnServer(binary, victim, uds_paths[victim]);
  TSB_CHECK(WaitForServer(uds_paths[victim], 30.0));
  Result<engine::QueryResult> healed =
      executor.Execute(query, engine::MethodKind::kFullTop);
  for (int attempt = 0;
       attempt < 200 && healed.ok() && healed->partial; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    healed = executor.Execute(query, engine::MethodKind::kFullTop);
  }
  TSB_CHECK(healed.ok() && !healed->partial) << "shard never recovered";
  TSB_CHECK(healed->entries == clean->entries);
  std::printf("restarted shard %zu: full ranking restored\n", victim);
  executor.set_transport(nullptr);

  std::printf("\ntransport telemetry:\n%s",
              executor.GetTransportMetrics().ToString().c_str());

  kill_all();
  for (const std::string& path : uds_paths) ::unlink(path.c_str());
  std::printf("\nOK\n");
  return 0;
}
