// topobench: the repository's benchmark driver. Runs one named workload
// for a fixed time, checks every answer against its oracle, and prints one
// JSON result line last on stdout:
//
//   topobench --workload <paper_grid|sharded_service|mutate_read>
//             --seed <n> --seconds <s> --trace <0|1> [--corrupt <oracle>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md for both lists and the map between them).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric of the benchmark, by mode. A traced run prints each per-layer
// metric; one whose layer does not run on the workload reads 0.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},
    {"queries_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"biozon.generate_s", "s"},
    {"core.build_s", "s"},
    {"core.prune_s", "s"},
    {"engine.prepare_indexes_s", "s"},
    {"net.fleet_ready_s", "s"},
    {"engine.full-top.p50_ms", "ms"},
    {"engine.fast-top.p50_ms", "ms"},
    {"engine.full-topk.p50_ms", "ms"},
    {"engine.fast-topk.p50_ms", "ms"},
    {"engine.full-topk-et.p50_ms", "ms"},
    {"engine.fast-topk-et.p50_ms", "ms"},
    {"engine.full-topk-opt.p50_ms", "ms"},
    {"engine.fast-topk-opt.p50_ms", "ms"},
    {"engine.fast_extra_ms", "ms"},
    {"optimizer.opt_over_best.median", "ratio"},
    {"optimizer.opt_over_best.max", "ratio"},
    {"engine.rows_scanned_per_query", "count"},
    {"engine.subqueries_per_query", "count"},
    {"columnar.blocks_skipped_ratio", "ratio"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.overhead_ms", "ms"},
    {"shard.scatter_gather_ms", "ms"},
    {"shard.tax_ms", "ms"},
    {"net.rtt_us", "us"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.bytes_per_query", "bytes"},
    {"mutation.apply_ms.structural", "ms"},
    {"mutation.apply_ms.attribute", "ms"},
    {"mutation.apply_p50_ms", "ms"},
    {"mutation.applies_per_s", "1/s"},
    {"mutation.wal_append_ms", "ms"},
    {"mutation.restaged_pairs_per_batch", "count"},
    {"mutation.wal_bytes_per_batch", "bytes"},
    {"mutation.compaction_folds", "count"},
    {"trace.query_p50_ms", "ms"},
    {"trace.spans", "count"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "topobench: %s\nusage: topobench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt <oracle>]\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--corrupt") {
      options.corrupt = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--clients") {
      options.clients = std::strtoul(value.c_str(), nullptr, 10);
    } else if (flag == "--cache") {
      options.cache = value != "0";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  ::mkdir(options.out_dir.c_str(), 0755);

  RunResult result;
  if (options.workload == "paper_grid") {
    result = perfbench::RunPaperGrid(options);
  } else if (options.workload == "sharded_service") {
    result = perfbench::RunShardedService(options);
  } else if (options.workload == "mutate_read") {
    result = perfbench::RunMutateRead(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  for (const std::string& error : result.errors) {
    std::printf("ORACLE FAILURE: %s\n", error.c_str());
  }
  const std::vector<MetricDef>& defs = options.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = result.metrics.find(defs[i].name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct && result.attempted > 0 ? 0 : 1;
}
