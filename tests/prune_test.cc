// Differential tests for column pruning (algebra/prune.h).
//
// The unpruned plan (Binder::BindSelect) is the oracle: for every join
// template the pruned plan the binder hands out must produce the same bag
// of rows under the same root schema, and capture the same sketch. Plans
// without joins must come back untouched. End to end, IMP answers over the
// pruned plans must match the no-sketch answers across an insert/delete
// churn on TPC-H.

#include <gtest/gtest.h>

#include "algebra/prune.h"
#include "exec/executor.h"
#include "middleware/imp_system.h"
#include "sketch/capture.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace imp {
namespace {

PlanPtr BindUnpruned(const Database& db, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  IMP_CHECK_MSG(stmt.ok(), sql.c_str());
  Binder binder(&db);
  auto plan = binder.BindSelect(*stmt.value());
  IMP_CHECK_MSG(plan.ok(), sql.c_str());
  return plan.value();
}

bool SameSchema(const Schema& a, const Schema& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.column(i).name != b.column(i).name ||
        a.column(i).type != b.column(i).type) {
      return false;
    }
  }
  return true;
}

/// Widest row any join in the plan materializes.
size_t WidestJoin(const PlanPtr& plan) {
  size_t widest = 0;
  VisitPlan(plan, [&](const PlanPtr& node) {
    if (node->kind() == PlanKind::kJoin) {
      widest = std::max(widest, node->output_schema().size());
    }
  });
  return widest;
}

/// Pruned vs unpruned: same root schema, same bag, same captured sketch.
void ExpectEquivalent(const Database& db, const PartitionCatalog& catalog,
                      const std::string& sql) {
  SCOPED_TRACE(sql);
  PlanPtr unpruned = BindUnpruned(db, sql);
  PlanPtr pruned = MustBind(db, sql);
  EXPECT_TRUE(SameSchema(unpruned->output_schema(), pruned->output_schema()));
  EXPECT_LE(WidestJoin(pruned), WidestJoin(unpruned));

  Executor exec(&db);
  auto want = exec.Execute(unpruned);
  auto got = exec.Execute(pruned);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(want.value().SameBag(got.value()))
      << "unpruned:\n" << want.value().ToString() << "pruned:\n"
      << got.value().ToString() << pruned->ToString();

  CaptureEngine capture(&db, &catalog);
  auto want_sketch = capture.Capture(unpruned);
  auto got_sketch = capture.Capture(pruned);
  ASSERT_TRUE(want_sketch.ok());
  ASSERT_TRUE(got_sketch.ok());
  EXPECT_EQ(want_sketch.value().fragments.SetBits(),
            got_sketch.value().fragments.SetBits());
}

TEST(PruneColumnsTest, TpchTemplatesMatchUnpruned) {
  Database db;
  TpchSpec spec;
  spec.scale_factor = 0.002;
  ASSERT_TRUE(CreateTpchTables(&db, spec).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register(RangePartition::EquiWidthInt(
                      "customer", "c_custkey", 0, 1, 300, 20))
                  .ok());
  for (const std::string& sql :
       {TpchQ5Sql(100000), TpchQ10Sql(), TpchQ18Sql(150), TpchQ18Sql(0)}) {
    ExpectEquivalent(db, catalog, sql);
  }
  // Q5 concatenated all 23 columns of lineitem, orders, customer and
  // nation; it reads 9 of them.
  EXPECT_EQ(WidestJoin(BindUnpruned(db, TpchQ5Sql(100000))), 23u);
  EXPECT_EQ(WidestJoin(MustBind(db, TpchQ5Sql(100000))), 9u);
}

TEST(PruneColumnsTest, JoinShapesMatchUnpruned) {
  Database db;
  JoinPairSpec spec;
  spec.distinct_keys = 60;
  spec.left_per_key = 3;
  spec.right_per_key = 2;
  spec.left_name = "jl";
  spec.right_name = "jr";
  ASSERT_TRUE(CreateJoinPair(&db, spec).ok());
  JoinPairSpec helper;
  helper.distinct_keys = 40;
  ASSERT_TRUE(CreateJoinPair(&db, helper).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("jl", "a", 1, 0, 59, 6))
          .ok());
  const char* queries[] = {
      // property_test / workload_test join templates.
      "SELECT a, sum(w) AS sw FROM jl JOIN jr ON (a = ttid) "
      "WHERE b < 100 GROUP BY a HAVING sum(w) > 500",
      "SELECT id FROM t1gbjoin JOIN tjoinhelp ON (a = ttid)",
      "SELECT id FROM jl JOIN jr ON (a = ttid)",
      // Every column read: nothing to drop.
      "SELECT * FROM jl JOIN jr ON (a = ttid)",
      // Residual predicate, comma join, non-aggregate top-k, distinct.
      "SELECT id, w FROM jl JOIN jr ON (a = ttid AND b < w + 50)",
      "SELECT jl.id FROM jl, jr WHERE a = ttid AND b > 20",
      "SELECT id, b FROM jl JOIN jr ON (a = ttid) ORDER BY b DESC LIMIT 7",
      "SELECT DISTINCT a FROM jl JOIN jr ON (a = ttid)",
      // Nothing read but the row count: a cross product keeps one column
      // per side.
      "SELECT count(*) AS n FROM jl, jr",
      // A join over an aggregating subquery and a three-way join.
      "SELECT s.a, s.sb FROM (SELECT a, sum(b) AS sb FROM jl GROUP BY a) s "
      "JOIN jr ON (s.a = ttid)",
      "SELECT jl.a, count(*) AS n FROM jl JOIN jr ON (jl.a = jr.ttid) "
      "JOIN t1gbjoin ON (jl.a = t1gbjoin.a) GROUP BY jl.a",
  };
  for (const char* sql : queries) ExpectEquivalent(db, catalog, sql);
}

TEST(PruneColumnsTest, JoinFreePlansComeBackUnchanged) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 200;
  spec.num_groups = 10;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  const char* queries[] = {
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 100",
      "SELECT a, count(*) AS n FROM t WHERE b < 50 GROUP BY a",
      "SELECT a, b FROM t WHERE c > 3",
      "SELECT * FROM t",
      "SELECT DISTINCT a FROM t",
      "SELECT a, sum(c) AS sc FROM t GROUP BY a ORDER BY sc DESC LIMIT 3",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    PlanPtr plan = BindUnpruned(db, sql);
    EXPECT_EQ(PruneColumns(plan), plan);
    EXPECT_EQ(MustBind(db, sql)->ToString(), plan->ToString());
  }
}

TEST(PruneColumnsTest, ImpMatchesNoSketchUnderChurn) {
  TpchSpec spec;
  spec.scale_factor = 0.002;
  Database db_ns, db_imp;
  ASSERT_TRUE(CreateTpchTables(&db_ns, spec).ok());
  ASSERT_TRUE(CreateTpchTables(&db_imp, spec).ok());
  ImpConfig ns_config;
  ns_config.mode = ExecutionMode::kNoSketch;
  ImpSystem ns(&db_ns, ns_config);
  ImpConfig imp_config;
  imp_config.mode = ExecutionMode::kIncremental;
  imp_config.strategy = MaintenanceStrategy::kEager;
  imp_config.eager_batch_size = 1;
  ImpSystem imp(&db_imp, imp_config);
  ASSERT_TRUE(imp.RegisterPartition(RangePartition::EquiWidthInt(
                                        "customer", "c_custkey", 0, 1, 300, 20))
                  .ok());
  const std::vector<std::string> templates = {TpchQ18Sql(150),
                                              TpchQ5Sql(100000), TpchQ10Sql()};
  auto check = [&](const std::string& sql, int statement) {
    auto want = ns.Query(sql);
    auto got = imp.Query(sql);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.value().SameBag(got.value()))
        << "after statement " << statement << ": " << sql;
  };
  for (const std::string& sql : templates) check(sql, -1);  // captures

  const int64_t orders =
      static_cast<int64_t>(db_ns.GetTable("orders")->NumRows());
  Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    if (i % 10 == 9) {
      std::string sql = "DELETE FROM lineitem WHERE l_orderkey = " +
                        std::to_string(rng.UniformInt(1, orders));
      ASSERT_TRUE(ns.Update(sql).ok());
      ASSERT_TRUE(imp.Update(sql).ok());
    } else {
      BoundUpdate insert;
      insert.kind = BoundUpdate::Kind::kInsert;
      insert.table = "lineitem";
      for (int64_t r = 1; r <= 5; ++r) {
        insert.rows.push_back(
            TpchLineitemRow(rng.UniformInt(1, orders), r, &rng));
      }
      ASSERT_TRUE(ns.UpdateBound(insert).ok());
      ASSERT_TRUE(imp.UpdateBound(insert).ok());
    }
    if (i % 25 == 24) check(templates[(i / 25) % templates.size()], i);
  }
  EXPECT_GT(imp.stats().sketch_uses, 0u);
}

}  // namespace
}  // namespace imp
