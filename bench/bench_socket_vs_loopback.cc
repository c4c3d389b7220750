// Transport overhead of cross-process sharding: scatter-gather latency
// through one transport, replica::ReplicaSetTransport at R=1, over two
// channel kinds — shard::LoopbackReplicaChannel (in-process) and
// replica::SocketReplicaChannel (UDS) — at N ∈ {2, 4} shards, with every
// socket-path result verified identical to the in-process path (and to the
// single-store engine) per run.
//
// The shard servers run in-process here (same engines behind real
// sockets), so the two sides differ only in the channel under the same
// routing layer: the measured delta is exactly the socket tax — frame
// write + kernel socket hop + frame read — not fixture divergence.
//
// The two sides are interleaved rep by rep (in alternating order, so slow
// drift of the host lands on both), and each side's A/A spread — the
// median difference between two consecutive sweeps of the *same* side —
// is printed next to the per-frame tax. A tax inside the larger spread is
// reported as noise, not as a measurement.
//
// Flags: --scale=<f> (default 0.25), --l=<n> (default 3),
// --reps=<n> (default 9).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "common/table_printer.h"
#include "net/shard_server.h"
#include "replica/replica_set.h"
#include "shard/frame_handler.h"
#include "shard/replica_loopback.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/message.h"

namespace tsb {
namespace bench {
namespace {

struct QueryCase {
  engine::TopologyQuery query;
  engine::MethodKind method;
};

std::vector<QueryCase> MakeQuerySet(const World& world) {
  std::vector<QueryCase> cases;
  const std::vector<engine::MethodKind> methods = {
      engine::MethodKind::kFullTop,    engine::MethodKind::kFastTop,
      engine::MethodKind::kFullTopK,   engine::MethodKind::kFastTopK,
      engine::MethodKind::kFullTopKEt, engine::MethodKind::kFastTopKEt,
  };
  for (const char* set2 : {"DNA", "Unigene"}) {
    for (const char* tier : {"selective", "medium"}) {
      engine::TopologyQuery q;
      q.entity_set1 = "Protein";
      q.pred1 = biozon::SelectivityPredicate(world.db, "Protein", tier);
      q.entity_set2 = set2;
      q.scheme = core::RankScheme::kFreq;
      q.k = 10;
      for (engine::MethodKind method : methods) {
        cases.push_back({q, method});
      }
    }
  }
  return cases;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median |t[i] - t[i-1]| over consecutive sweeps of one side: each pair
/// is an A/A run of the same configuration. 0 with fewer than 2 sweeps.
double AaSpread(const std::vector<double>& sweeps) {
  std::vector<double> deltas;
  for (size_t i = 1; i < sweeps.size(); ++i) {
    deltas.push_back(std::fabs(sweeps[i] - sweeps[i - 1]));
  }
  return Median(std::move(deltas));
}

void Run(int argc, char** argv) {
  const double scale = FlagValue(argc, argv, "scale", 0.25);
  const size_t l = static_cast<size_t>(FlagValue(argc, argv, "l", 3));
  const int reps =
      std::max(1, static_cast<int>(FlagValue(argc, argv, "reps", 9)));

  WorldConfig config;
  config.scale = scale;
  config.max_path_length = l;
  config.pairs = {{"Protein", "DNA"}, {"Protein", "Unigene"}};
  std::unique_ptr<World> world = MakeWorld(config);
  std::printf(
      "Socket vs loopback channel under one ReplicaSetTransport (R=1): "
      "synthetic Biozon scale=%.2f, l=%zu; query set = 24 (methods x "
      "selectivity x pair); shard servers in-process behind UDS; %d "
      "interleaved reps per side\n\n",
      scale, l, reps);

  std::vector<QueryCase> cases = MakeQuerySet(*world);
  std::vector<std::vector<engine::ResultEntry>> expected;
  expected.reserve(cases.size());
  for (const QueryCase& c : cases) {
    auto result = world->engine->Execute(c.query, c.method);
    TSB_CHECK(result.ok()) << result.status();
    expected.push_back(result->entries);
  }

  TablePrinter table({"shards", "channel", "query set", "wire frames",
                      "per-frame tax", "A/A spread", "bytes/frame",
                      "verdict", "identical"});
  for (size_t n : {2u, 4u}) {
    // Build + prune this shard count under its own namespace.
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(n);
    {
      core::TopologyBuilder builder(&world->db, world->schema.get(),
                                    world->view.get());
      core::BuildConfig build;
      build.max_path_length = config.max_path_length;
      build.max_class_representatives = config.max_class_representatives;
      build.max_union_combinations = config.max_union_combinations;
      build.max_paths_per_source = config.max_paths_per_source;
      build.table_namespace = "sb" + std::to_string(n) + ".";
      std::vector<core::TopologyStore*> raw;
      std::vector<std::shared_ptr<core::TopologyStore>> pinned;
      for (size_t i = 0; i < n; ++i) {
        pinned.push_back(sharded->Snapshot(i));
        raw.push_back(pinned.back().get());
      }
      for (const auto& [a, b] : config.pairs) {
        TSB_CHECK(builder
                      .BuildPair(world->Type(a), world->Type(b), build, raw)
                      .ok());
      }
      for (size_t i = 0; i < n; ++i) {
        std::shared_ptr<core::TopologyStore> snapshot = sharded->Snapshot(i);
        for (const auto& [key, pair] : world->store.pairs()) {
          core::PruneConfig prune;
          prune.frequency_threshold = pair.prune_threshold;
          TSB_CHECK(core::PruneFrequentTopologies(&world->db, snapshot.get(),
                                                  key.first, key.second,
                                                  prune)
                        .ok());
        }
      }
    }
    engine::SqlBaselineOptions sql_options;
    sql_options.max_candidates = config.sql_max_candidates;
    shard::ScatterGatherExecutor executor(
        &world->db, sharded, world->schema.get(), world->view.get(),
        biozon::MakeBiozonDomainKnowledge(world->ids), sql_options);
    executor.PrepareIndexes("Protein", "DNA");
    executor.PrepareIndexes("Protein", "Unigene");

    // The in-process shard servers: the executor's own engines behind
    // real UDS sockets, so the two sides differ only in the channel.
    const shard::ShardedTopologyStore* store = &executor.store();
    std::vector<const engine::Engine*> engines;
    std::vector<std::unique_ptr<shard::ShardFrameHandler>> handlers;
    std::vector<std::unique_ptr<net::ShardServer>> servers;
    std::vector<net::ShardEndpoint> endpoints;
    for (size_t i = 0; i < n; ++i) {
      engines.push_back(&executor.shard_engine(i));
      // Stamped like the loopback channels, so both sides ship the same
      // response bytes.
      std::shared_ptr<core::StoreHandle> handle = store->handle(i);
      handlers.push_back(std::make_unique<shard::ShardFrameHandler>(
          &world->db, &executor.shard_engine(i),
          [handle]() { return handle->Snapshot(); },
          [handle]() { return wire::MakeServingStamp(0, handle->epoch()); }));
      net::ShardServerConfig server_config;
      server_config.uds_path = "/tmp/tsb_bench_sock_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(n) + "_" + std::to_string(i) +
                               ".sock";
      servers.push_back(std::make_unique<net::ShardServer>(
          handlers.back().get(), server_config));
      TSB_CHECK(servers.back()->Start().ok());
      endpoints.push_back(net::ShardEndpoint::Unix(server_config.uds_path));
    }
    replica::ReplicaSetTransport loopback(
        shard::MakeLoopbackReplicaGrid(&world->db, store, engines, 1)
            .channels);
    replica::ReplicaSetTransport socket(
        replica::SocketShardChannels(endpoints));

    struct Side {
      const char* name;
      wire::ShardTransport* transport;
      std::vector<double> sweeps;  // Seconds per query-set sweep.
      uint64_t frames = 0;
      uint64_t bytes = 0;
    };
    Side sides[2] = {{"loopback", &loopback, {}}, {"socket", &socket, {}}};

    auto sweep = [&](Side& side) {
      executor.set_transport(side.transport);
      const shard::ScatterStats before = executor.GetScatterStats();
      Stopwatch watch;
      for (const QueryCase& c : cases) {
        auto result = executor.Execute(c.query, c.method);
        TSB_CHECK(result.ok()) << result.status();
      }
      const double seconds = watch.ElapsedSeconds();
      const shard::ScatterStats after = executor.GetScatterStats();
      side.frames += after.transport_subqueries - before.transport_subqueries;
      side.bytes +=
          (after.transport_bytes_sent + after.transport_bytes_received) -
          (before.transport_bytes_sent + before.transport_bytes_received);
      executor.set_transport(nullptr);
      return seconds;
    };

    for (Side& side : sides) {
      // Identity check every run: the channel must never change results.
      // It doubles as the warm-up sweep of this side.
      executor.set_transport(side.transport);
      for (size_t i = 0; i < cases.size(); ++i) {
        auto result = executor.Execute(cases[i].query, cases[i].method);
        TSB_CHECK(result.ok()) << result.status();
        TSB_CHECK(!result->partial);
        TSB_CHECK(result->entries == expected[i])
            << side.name << " diverged at " << n << " shards, case " << i;
      }
      executor.set_transport(nullptr);
    }
    for (int rep = 0; rep < reps; ++rep) {
      // ABBA order: neither side always runs first after the other.
      const int first = rep % 2;
      sides[first].sweeps.push_back(sweep(sides[first]));
      sides[1 - first].sweeps.push_back(sweep(sides[1 - first]));
    }

    const double frames_per_sweep =
        static_cast<double>(sides[1].frames) / reps;
    const double per_frame_us =
        frames_per_sweep > 0 ? 1e6 / frames_per_sweep : 0.0;
    const double tax_us =
        per_frame_us * (Median(sides[1].sweeps) - Median(sides[0].sweeps));
    const double noise_us =
        per_frame_us *
        std::max(AaSpread(sides[0].sweeps), AaSpread(sides[1].sweeps));
    const char* verdict = reps < 2                       ? "no A/A (reps<2)"
                          : std::fabs(tax_us) > noise_us ? "measured"
                                                          : "noise";
    for (const Side& side : sides) {
      const bool is_socket = side.transport == &socket;
      table.AddRow(
          {std::to_string(n), side.name,
           TablePrinter::Num(1e3 * Median(side.sweeps), 2) + "ms",
           TablePrinter::Num(static_cast<double>(side.frames) / reps, 0) +
               "/sweep",
           is_socket ? TablePrinter::Num(tax_us, 1) + "us" : "-",
           TablePrinter::Num(per_frame_us * AaSpread(side.sweeps), 1) + "us",
           side.frames > 0
               ? TablePrinter::Num(static_cast<double>(side.bytes) /
                                       static_cast<double>(side.frames),
                                   0) + "B"
               : "-",
           is_socket ? verdict : "-", "yes"});
    }
    for (auto& server : servers) server->Stop();
  }
  table.Print(std::cout);
  std::printf(
      "\n(query set = median sweep time; per-frame tax = socket minus "
      "loopback median sweep, per wire frame; A/A spread = median "
      "difference between consecutive sweeps of the same side, per wire "
      "frame. A tax "
      "within the larger of the two A/A spreads is reported as noise. Both "
      "sides run the same ReplicaSetTransport and serialize identically, "
      "so the tax is write + socket hop + read. Every result verified "
      "identical to the single-store engine on both channels.)\n");
}

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::Run(argc, argv);
  return 0;
}
