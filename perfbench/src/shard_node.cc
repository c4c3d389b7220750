// topobench_shard: one shard server of the sharded_service workload. It
// generates the same Biozon world as the frontend (fixed seed, so TIDs,
// scores and ranks agree byte for byte), builds the N-way sharded
// Protein-Interaction precompute, prunes the shard it serves, and answers
// wire frames on a Unix-domain socket until SIGTERM.
//
//   topobench_shard --shard <i> --num-shards <n> --scale <f> --uds <path>
//
// The repository's tools/shard_server serves only the Figure-3 fixture, so
// the benchmark carries this server of its own.

#include <signal.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "biozon/domain.h"
#include "net/shard_server.h"
#include "shard/frame_handler.h"
#include "wire/message.h"
#include "world.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

std::string Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsb;

  const std::string uds = Flag(argc, argv, "--uds");
  const size_t shard = std::strtoul(Flag(argc, argv, "--shard").c_str(),
                                    nullptr, 10);
  const size_t num_shards = std::strtoul(
      Flag(argc, argv, "--num-shards").c_str(), nullptr, 10);
  const double scale = std::atof(Flag(argc, argv, "--scale").c_str());
  if (uds.empty() || num_shards == 0 || shard >= num_shards || scale <= 0) {
    std::fprintf(stderr,
                 "usage: topobench_shard --shard <i> --num-shards <n> "
                 "--scale <f> --uds <path>\n");
    return 2;
  }

  // Block the stop signals before any thread starts, so every thread
  // inherits the mask and only the sigsuspend below receives them.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigset_t unblocked;
  sigprocmask(SIG_BLOCK, &mask, &unblocked);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);

  perfbench::WorldOptions options;
  options.scale = scale;
  options.pairs = {{"Protein", "Interaction"}};
  options.num_shards = num_shards;
  options.prune_only_shard = shard;
  options.make_executor = false;
  std::unique_ptr<perfbench::World> world = perfbench::MakeWorld(options);

  const std::shared_ptr<core::StoreHandle>& handle =
      world->sharded->handle(shard);
  engine::SqlBaselineOptions sql_options;
  sql_options.max_candidates = 500;
  engine::Engine engine(
      &world->db, handle, world->schema.get(), world->view.get(),
      core::ScoreModel(&handle->Snapshot()->catalog(),
                       biozon::MakeBiozonDomainKnowledge(world->ids)),
      sql_options);
  engine.PrepareIndexes("Protein", "Interaction");
  std::shared_ptr<shard::ShardedTopologyStore> sharded = world->sharded;
  shard::ShardFrameHandler handler(
      &world->db, &engine,
      [sharded, shard]() { return sharded->Snapshot(shard); },
      [sharded, shard]() {
        return wire::MakeServingStamp(0, sharded->handle(shard)->epoch());
      });

  net::ShardServerConfig config;
  config.uds_path = uds;
  net::ShardServer server(&handler, config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "topobench_shard: %s\n", started.ToString().c_str());
    return 1;
  }
  while (!g_stop) sigsuspend(&unblocked);
  server.Stop();
  return 0;
}
