// paper_grid: the paper's Table 2 as a load. One closed-loop client calls
// engine::Engine::Execute in-process (no service, no cache) over
// Protein-Interaction at scale 1.0. A round is the full mix: the 3x3
// selectivity grid x {Freq, Domain, Rare} x the eight non-SQL methods with
// k = 10, in an order shuffled per round by the seed.
//
// Oracles, all computed off the timed path:
//  - the reference answer of each (cell, scheme) is Full-Top's full answer,
//    which must be ordered by (score desc, tid asc);
//  - on the three diagonal cells Full-Top's topology set must equal the
//    SQL baseline's, which works from base data alone (Section 3.1);
//  - every timed answer must equal its reference: Fast-Top the whole
//    answer, every top-k method (regular, ET and -Opt, Full and Fast) the
//    first k entries of it.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "biozon/generator.h"
#include "world.h"

namespace perfbench {

using namespace tsb;
using engine::MethodKind;

namespace {

constexpr double kScale = 1.0;
constexpr size_t kTopK = 10;
const char* const kTiers[] = {"selective", "medium", "unselective"};
const core::RankScheme kSchemes[] = {core::RankScheme::kFreq,
                                     core::RankScheme::kDomain,
                                     core::RankScheme::kRare};

struct Cell {
  size_t protein_tier = 0;
  size_t interaction_tier = 0;
  engine::TopologyQuery query;
  std::vector<engine::ResultEntry> reference;  // Full-Top's full answer.
};

bool RankOrdered(const std::vector<engine::ResultEntry>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    const engine::ResultEntry& a = entries[i - 1];
    const engine::ResultEntry& b = entries[i];
    if (a.score < b.score || (a.score == b.score && a.tid >= b.tid)) {
      return false;
    }
  }
  return true;
}

std::vector<engine::ResultEntry> Expected(const Cell& cell,
                                          MethodKind method) {
  if (!engine::MethodIsTopK(method)) return cell.reference;
  const size_t n = std::min(kTopK, cell.reference.size());
  return std::vector<engine::ResultEntry>(cell.reference.begin(),
                                          cell.reference.begin() + n);
}

std::string CellName(const Cell& cell) {
  return std::string(kTiers[cell.protein_tier]) + "/" +
         kTiers[cell.interaction_tier] + "/" +
         core::RankSchemeToString(cell.query.scheme);
}

}  // namespace

RunResult RunPaperGrid(const RunOptions& options) {
  RunResult result;
  SpanRecorder spans(options.trace);

  WorldOptions world_options;
  world_options.scale = kScale;
  world_options.pairs = {{"Protein", "Interaction"}};
  std::unique_ptr<World> world = MakeWorld(world_options);
  const double setup_s = SecondsSinceStart();
  const engine::Engine& engine = *world->engine;

  // The 27 (cell, scheme) queries and their reference answers.
  std::vector<Cell> cells;
  for (size_t pt = 0; pt < 3; ++pt) {
    for (size_t it = 0; it < 3; ++it) {
      for (core::RankScheme scheme : kSchemes) {
        Cell cell;
        cell.protein_tier = pt;
        cell.interaction_tier = it;
        cell.query.entity_set1 = "Protein";
        cell.query.pred1 =
            biozon::SelectivityPredicate(world->db, "Protein", kTiers[pt]);
        cell.query.entity_set2 = "Interaction";
        cell.query.pred2 = biozon::SelectivityPredicate(
            world->db, "Interaction", kTiers[it]);
        cell.query.scheme = scheme;
        cell.query.k = kTopK;
        auto full = engine.Execute(cell.query, MethodKind::kFullTop);
        if (!full.ok()) {
          result.Fail("reference Full-Top failed on " + CellName(cell) +
                      ": " + full.status().ToString());
          return result;
        }
        cell.reference = full->entries;
        if (options.corrupt == "order" && cells.empty() &&
            cell.reference.size() >= 2) {
          std::swap(cell.reference[0], cell.reference[1]);
        }
        if (!RankOrdered(cell.reference)) {
          result.Fail("Full-Top answer of " + CellName(cell) +
                      " is not ordered by (score desc, tid asc)");
        }
        cells.push_back(std::move(cell));
      }
    }
  }

  // The timed window: whole rounds of the mix until the time is up.
  const size_t ops_per_round = cells.size() * kNumMethods;
  std::vector<size_t> order(ops_per_round);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(options.seed);
  std::vector<SlicedLatencies> latencies(1, SlicedLatencies(kSliceSeconds));
  uint64_t answered = 0;
  std::vector<std::vector<std::vector<double>>> cell_method_ms(
      cells.size(), std::vector<std::vector<double>>(kNumMethods));
  engine::ExecStats totals;
  bool corrupted_once = false;
  Stopwatch window;
  uint64_t request = 0;
  while (window.ElapsedSeconds() < options.seconds) {
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t op : order) {
      const Cell& cell = cells[op / kNumMethods];
      const BenchMethod& method = kMethods[op % kNumMethods];
      ++request;
      uint64_t engine_span = 0;
      Stopwatch watch;
      Result<engine::QueryResult> answer = [&]() {
        ScopedSpan root(&spans, "grid.query", 0, request);
        ScopedSpan call(&spans, "engine.execute", root.id(), request,
                        method.name);
        engine_span = call.id();
        return engine.Execute(cell.query, method.kind);
      }();
      const double ms = watch.ElapsedMillis();
      ++result.attempted;
      if (!answer.ok()) {
        ++result.failed;
        continue;
      }
      latencies[0].Add(window.ElapsedSeconds(), ms);
      ++answered;
      totals += answer->stats;
      if (spans.enabled()) {
        cell_method_ms[op / kNumMethods][op % kNumMethods].push_back(
            spans.DurationMs(engine_span));
      }
      std::vector<engine::ResultEntry>& entries = answer->entries;
      if (!corrupted_once && !entries.empty()) {
        if (options.corrupt == "answer" &&
            method.kind == MethodKind::kFastTopKEt) {
          entries[0].tid += 1;
          corrupted_once = true;
        } else if (options.corrupt == "topk_prefix" &&
                   method.kind == MethodKind::kFullTopKOpt) {
          entries.pop_back();
          corrupted_once = true;
        }
      }
      if (entries != Expected(cell, method.kind)) {
        result.Fail(std::string(method.name) + " answer on " +
                    CellName(cell) + " differs from the reference");
      }
    }
  }
  const double peak_rss_mb = SelfPeakRssMb();

  // SQL-baseline oracle on the diagonal cells (scheme-independent).
  for (const Cell& cell : cells) {
    if (cell.protein_tier != cell.interaction_tier ||
        cell.query.scheme != core::RankScheme::kFreq) {
      continue;
    }
    auto sql = engine.Execute(cell.query, MethodKind::kSql);
    if (!sql.ok()) {
      result.Fail("SQL baseline failed on " + CellName(cell) + ": " +
                  sql.status().ToString());
      continue;
    }
    std::set<core::Tid> sql_tids, full_tids;
    for (const auto& entry : sql->entries) sql_tids.insert(entry.tid);
    for (const auto& entry : cell.reference) full_tids.insert(entry.tid);
    if (options.corrupt == "sql" && cell.protein_tier == 0 &&
        !sql_tids.empty()) {
      sql_tids.erase(sql_tids.begin());
    }
    if (sql_tids != full_tids) {
      result.Fail("Full-Top topology set differs from the SQL baseline on " +
                  CellName(cell));
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
  for (const BenchMethod& method : kMethods) {
    m[std::string("engine.") + method.name + ".p50_ms"] =
        Median(spans.DurationsMs("engine.execute", method.name));
  }
  // Per cell: Fast-Top's extra time over Full-Top, and each -Opt method
  // against the faster of the two fixed plans it chooses between.
  std::vector<double> fast_extra, opt_over_best;
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> med(kNumMethods);
    for (size_t k = 0; k < kNumMethods; ++k) {
      med[k] = Median(cell_method_ms[c][k]);
    }
    fast_extra.push_back(med[1] - med[0]);
    opt_over_best.push_back(med[6] / std::min(med[2], med[4]));
    opt_over_best.push_back(med[7] / std::min(med[3], med[5]));
  }
  m["engine.fast_extra_ms"] = Median(fast_extra);
  m["optimizer.opt_over_best.median"] = Median(opt_over_best);
  m["optimizer.opt_over_best.max"] =
      *std::max_element(opt_over_best.begin(), opt_over_best.end());
  const double n = static_cast<double>(std::max<uint64_t>(1, answered));
  m["engine.rows_scanned_per_query"] =
      static_cast<double>(totals.rows_scanned) / n;
  m["engine.subqueries_per_query"] = static_cast<double>(totals.subqueries) / n;
  m["columnar.blocks_skipped_ratio"] =
      totals.blocks_total > 0 ? static_cast<double>(totals.blocks_skipped) /
                                    static_cast<double>(totals.blocks_total)
                              : 0.0;
  m["trace.query_p50_ms"] = e2e.p50_ms;
  FinishTrace(options, spans, &result);
  return result;
}

}  // namespace perfbench
