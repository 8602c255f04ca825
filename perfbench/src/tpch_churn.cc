// tpch_churn — the fig09 TPC-H sketches kept fresh under write churn.
//
// TPC-H SF 0.01, partitioned on customer.c_custkey into 100 fragments; the
// Q18-having, Q5-having and Q10-top-k sketches are captured during set-up.
// IMP with eager maintenance after every statement (batch size 1) and
// synchronous ingestion.
//
// One client runs episodes of 300 statements: 50-row lineitem inserts,
// with a `DELETE FROM lineitem WHERE l_orderkey = k` as every 10th
// statement, and one query after every 100 statements (Q18, Q5, Q10 in
// turn). Every episode starts from a fresh set-up over its own data and
// stream, both drawn from the seed and the episode number; episodes
// repeat until the window is full and at least 1000 inserts ran. Every
// query is checked against the no-sketch oracle.

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.01;
constexpr size_t kFragments = 100;
constexpr size_t kInsertRows = 50;
constexpr size_t kDeleteEvery = 10;
constexpr size_t kQueryEvery = 100;
constexpr size_t kStatementsPerEpisode = 300;
constexpr size_t kMinInserts = 1000;

struct Statement {
  bool is_delete = false;
  imp::BoundUpdate insert;  ///< !is_delete
  std::string delete_sql;   ///< is_delete
  int query = -1;           ///< template to run after this statement, or -1
};

}  // namespace

RunResult RunTpchChurn(const Options& opt) {
  RunResult out;
  imp::TpchSpec spec;
  spec.scale_factor = kScaleFactor;
  const std::vector<std::string> templates = {
      imp::TpchQ18Sql(200), imp::TpchQ5Sql(1000000), imp::TpchQ10Sql()};

  // Table sizes follow from the scale factor alone; load once to read
  // them.
  int64_t orders = 0;
  {
    imp::Database probe;
    Require(imp::CreateTpchTables(&probe, spec), "load TPC-H");
    orders = static_cast<int64_t>(probe.GetTable("orders")->NumRows());
  }

  // ---- per-episode inputs, generated from the seed before any clock
  // starts: the data's seed and the statement stream ----------------------
  std::vector<Statement> stream(kStatementsPerEpisode);
  std::vector<int64_t> delete_keys(static_cast<size_t>(orders));
  auto prepare = [&](size_t episode) {
    spec.seed = SubSeed(SubSeed(opt.seed, episode), 0);
    imp::Rng rng(SubSeed(SubSeed(opt.seed, episode), 1));
    std::iota(delete_keys.begin(), delete_keys.end(), 1);
    Shuffle(&delete_keys, &rng);
    size_t next_delete = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      Statement& st = stream[i];
      st = Statement();
      if (i % kDeleteEvery == kDeleteEvery - 1) {
        st.is_delete = true;
        st.delete_sql = "DELETE FROM lineitem WHERE l_orderkey = " +
                        std::to_string(delete_keys[next_delete++]);
      } else {
        st.insert.kind = imp::BoundUpdate::Kind::kInsert;
        st.insert.table = "lineitem";
        for (size_t r = 0; r < kInsertRows; ++r) {
          st.insert.rows.push_back(imp::TpchLineitemRow(
              rng.UniformInt(1, orders), static_cast<int64_t>(r + 1), &rng));
        }
      }
      if ((i + 1) % kQueryEvery == 0) {
        st.query = static_cast<int>((i / kQueryEvery) % templates.size());
      }
    }
  };

  // ---- set-up: fresh load, partition and the three captures -------------
  EpisodeRunner runner(opt, prepare, [&] {
    Env e;
    e.db = std::make_unique<imp::Database>();
    Require(imp::CreateTpchTables(e.db.get(), spec), "load TPC-H");
    imp::ImpConfig config;
    config.mode = imp::ExecutionMode::kIncremental;
    config.strategy = imp::MaintenanceStrategy::kEager;
    config.eager_batch_size = 1;
    e.sys = std::make_unique<imp::ImpSystem>(e.db.get(), config);
    const int64_t customers =
        static_cast<int64_t>(e.db->GetTable("customer")->NumRows());
    Require(e.sys->RegisterPartition(imp::RangePartition::EquiWidthInt(
                "customer", "c_custkey", 0, 1, customers, kFragments)),
            "partition customer.c_custkey");
    for (const std::string& sql : templates) {
      Require(e.sys->Query(sql).status(), "initial capture");
    }
    return e;
  });
  TraceAlternator& alternator = runner.alternator();
  runner.Run(
      [&](Client& client) {
        imp::PlanPtr plan;
        imp::Relation answer;
        for (const Statement& st : stream) {
          const bool traced = alternator.traced();
          const size_t ops_before = client.ops();
          if (st.is_delete) {
            client.Delete(st.delete_sql);
          } else {
            client.Insert(st.insert);
          }
          if (st.query >= 0 &&
              client.Query(templates[static_cast<size_t>(st.query)], &plan,
                           &answer)) {
            runner.Check(plan, answer);
          }
          alternator.CountOps(traced, client.ops() - ops_before);
          // One query period (100 statements + 1 query) per traced or
          // untraced block, so both kinds hold the same mix of operations.
          if (st.query >= 0) alternator.Switch(runner.window().ActiveSeconds());
          client.tracer().set_enabled(alternator.traced());
        }
      },
      [&] { return runner.inserts() >= kMinInserts; });
  runner.Finish(&out);
  return out;
}

}  // namespace perfbench
