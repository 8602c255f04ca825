// mixed_lazy — the fig08 mixed workload as a closed loop.
//
// Synthetic edb1 (40,000 rows, 500 groups), range-partitioned on `b` into
// 100 equi-width fragments over [0, max b of the base data and the insert
// stream], so every row an episode writes lies inside the partition's domain
// (fig08 declares [0, 1500], which some rows exceed: see README.md). IMP
// with lazy maintenance and synchronous ingestion; no sketch exists before
// the window (the first query captures).
//
// One client runs episodes of 50 rounds, each round one 20-row insert
// followed by five SUM/HAVING template queries with seed-drawn thresholds.
// Every episode starts from a fresh set-up over its own base data and
// stream, both drawn from the seed and the episode number, so a run
// averages over many datasets (the share of rows a sketch selects varies
// by ~15% from one dataset to the next). Episodes repeat until the window
// is full and at least 1000 queries ran.
// Every 10th query is checked against the no-sketch oracle (and, in the
// traced run, replayed through its sketch).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 40000;
constexpr size_t kGroups = 500;
constexpr size_t kFragments = 100;
constexpr size_t kInsertRows = 20;
constexpr size_t kQueriesPerRound = 5;
constexpr size_t kRoundsPerEpisode = 50;
constexpr size_t kMinQueries = 1000;
constexpr size_t kOracleEvery = 10;

struct Round {
  imp::BoundUpdate insert;
  std::vector<std::string> queries;
};

}  // namespace

RunResult RunMixedLazy(const Options& opt) {
  RunResult out;
  // Thresholds keep roughly the top 10% of groups (sum(c) per group is
  // ~rows_per_group * 1.5 * a); the first query uses the base threshold so
  // later, larger thresholds reuse its sketch.
  const int64_t rows_per_group = static_cast<int64_t>(kRows / kGroups) + 1;
  const int64_t base_threshold =
      rows_per_group * 3 * (static_cast<int64_t>(kGroups) * 9 / 10) / 2;

  // ---- per-episode inputs, generated from the seed before any clock
  // starts: the base data's seed, the stream, and the partition domain ----
  imp::SyntheticSpec spec;
  spec.name = "edb1";
  spec.num_rows = kRows;
  spec.num_groups = kGroups;
  std::vector<Round> rounds(kRoundsPerEpisode);
  int64_t max_b = 0;
  auto prepare = [&](size_t episode) {
    spec.seed = SubSeed(SubSeed(opt.seed, episode), 0);
    imp::Rng rng(SubSeed(SubSeed(opt.seed, episode), 1));
    imp::SyntheticSpec row_spec;
    row_spec.num_groups = kGroups;
    int64_t next_id = static_cast<int64_t>(kRows);
    for (size_t r = 0; r < rounds.size(); ++r) {
      Round& round = rounds[r];
      round.insert = imp::BoundUpdate();
      round.insert.kind = imp::BoundUpdate::Kind::kInsert;
      round.insert.table = "edb1";
      for (size_t i = 0; i < kInsertRows; ++i) {
        round.insert.rows.push_back(
            imp::SyntheticRow(row_spec, next_id++, &rng));
      }
      round.queries.clear();
      for (size_t q = 0; q < kQueriesPerRound; ++q) {
        int64_t threshold = base_threshold;
        if (r > 0 || q > 0) threshold += rng.UniformInt(0, 40) * rows_per_group;
        round.queries.push_back(
            "SELECT a, sum(c) AS sc FROM edb1 GROUP BY a HAVING sum(c) > " +
            std::to_string(threshold));
      }
    }
    // Partition domain: the largest `b` the episode will ever hold. The
    // base rows are regenerated exactly as CreateSyntheticTable draws them.
    max_b = 0;
    imp::Rng base_rng(spec.seed);
    for (size_t i = 0; i < kRows; ++i) {
      max_b = std::max(max_b, imp::SyntheticRow(spec, static_cast<int64_t>(i),
                                                &base_rng)[2]
                                  .AsInt());
    }
    for (const Round& round : rounds) {
      for (const imp::Tuple& row : round.insert.rows) {
        max_b = std::max(max_b, row[2].AsInt());
      }
    }
  };

  // ---- set-up: fresh load + partition (no initial capture) ---------------
  EpisodeRunner runner(opt, prepare, [&] {
    Env e;
    e.db = std::make_unique<imp::Database>();
    Require(imp::CreateSyntheticTable(e.db.get(), spec), "load edb1");
    imp::ImpConfig config;
    config.mode = imp::ExecutionMode::kIncremental;
    config.strategy = imp::MaintenanceStrategy::kLazy;
    e.sys = std::make_unique<imp::ImpSystem>(e.db.get(), config);
    Require(e.sys->RegisterPartition(imp::RangePartition::EquiWidthInt(
                "edb1", "b", 2, 0, max_b, kFragments)),
            "partition edb1.b");
    return e;
  });
  TraceAlternator& alternator = runner.alternator();
  size_t queries = 0;
  runner.Run(
      [&](Client& client) {
        imp::PlanPtr plan;
        imp::Relation answer;
        for (const Round& round : rounds) {
          const bool traced = alternator.traced();
          const size_t ops_before = client.ops();
          client.Insert(round.insert);
          for (const std::string& sql : round.queries) {
            if (!client.Query(sql, &plan, &answer)) continue;
            if (++queries % kOracleEvery == 0) runner.Check(plan, answer);
          }
          alternator.CountOps(traced, client.ops() - ops_before);
          alternator.Tick(runner.window().ActiveSeconds());
          client.tracer().set_enabled(alternator.traced());
        }
      },
      [&] { return runner.queries() >= kMinQueries; });
  runner.Finish(&out);
  return out;
}

}  // namespace perfbench
