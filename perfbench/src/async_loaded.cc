// async_loaded — the loaded concurrent_queries regime, as an open loop.
//
// Synthetic edb1 (20,000 rows, 500 groups), partitioned on `a` into 100
// fragments, with 8 SUM/HAVING sketch templates (one per correlated
// column, each keeping about the top 10% of groups) captured in set-up.
// Asynchronous ingestion (queue 256, apply batch 8) with eager rounds every
// 8 statements on the ingestion worker. The calling thread is an open-loop
// producer of single-row inserts at a fixed 1,000 statements/s: each write
// is timed from its scheduled send. Between send slots the producer polls
// Database::StableVersion() about every 20 us, and spins through the last
// 30 us before a send, to time when each ticket becomes visible. Two
// reader threads run closed loops over the templates. Threads: producer +
// 2 readers + ingestion worker = 4.
// After the window the stream is drained, every sketch maintained, and all
// 8 templates are checked against the no-sketch oracle, five times each.

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "percentile.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 20000;
constexpr size_t kGroups = 500;
constexpr size_t kFragments = 100;
constexpr size_t kSketches = 8;
constexpr size_t kReaders = 2;
constexpr int64_t kSendPeriodNs = 1000000;  // 1,000 statements/s
constexpr int64_t kPollNs = 20000;          // StableVersion poll interval
constexpr int64_t kSpinNs = 30000;          // spin before each send
constexpr int64_t kDrainDeadlineNs = 10000000000;  // 10 s
constexpr size_t kSetupReps = 15;
constexpr size_t kOracleRounds = 5;

/// Eight SUM/HAVING templates, one per correlated column. Column k is
/// ~coef_k * a, so each threshold is scaled by that column's coefficient
/// (SyntheticRow) to keep roughly the top 10% of groups in every template
/// at load time: all eight sketches select a similar share of fragments.
std::vector<std::string> Templates() {
  const int64_t rows_per_group = static_cast<int64_t>(kRows / kGroups) + 1;
  const int64_t a_cut = static_cast<int64_t>(kGroups) * 9 / 10;
  const struct {
    const char* column;
    int64_t coef_x10;
  } columns[kSketches] = {{"b", 30}, {"c", 20}, {"d", 15}, {"e", 10},
                          {"f", 8},  {"g", 5},  {"h", 4},  {"i", 3}};
  std::vector<std::string> sql;
  for (const auto& col : columns) {
    const int64_t threshold = rows_per_group * a_cut * col.coef_x10 / 10;
    sql.push_back("SELECT a, sum(" + std::string(col.column) +
                  ") AS s FROM edb1 GROUP BY a HAVING sum(" + col.column +
                  ") > " + std::to_string(threshold));
  }
  return sql;
}

struct Pending {
  uint64_t ticket;
  int64_t due_ns;
};

/// Stops and joins the reader threads on every exit path.
struct ReaderJoin {
  std::atomic<bool>* stop;
  std::vector<std::thread>* threads;
  ~ReaderJoin() {
    stop->store(true, std::memory_order_release);
    for (std::thread& t : *threads) {
      if (t.joinable()) t.join();
    }
  }
};

}  // namespace

RunResult RunAsyncLoaded(const Options& opt) {
  RunResult out;
  Report& report = out.report;
  const std::vector<std::string> templates = Templates();

  // ---- inputs, generated from the seed before any clock starts ----------
  imp::SyntheticSpec spec;
  spec.name = "edb1";
  spec.num_rows = kRows;
  spec.num_groups = kGroups;
  spec.seed = SubSeed(opt.seed, 0);
  const int64_t window_ns = static_cast<int64_t>(opt.seconds * 1e9);
  const size_t num_sends = static_cast<size_t>(window_ns / kSendPeriodNs);
  std::vector<imp::BoundUpdate> sends(num_sends);
  {
    imp::Rng rng(SubSeed(opt.seed, 1));
    imp::SyntheticSpec row_spec;
    row_spec.num_groups = kGroups;
    for (size_t i = 0; i < num_sends; ++i) {
      sends[i].kind = imp::BoundUpdate::Kind::kInsert;
      sends[i].table = "edb1";
      sends[i].rows.push_back(imp::SyntheticRow(
          row_spec, static_cast<int64_t>(kRows + i), &rng));
    }
  }
  // Each reader cycles through its own seed-shuffled order of templates.
  std::vector<std::vector<size_t>> reader_order(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    imp::Rng rng(SubSeed(opt.seed, 2 + r));
    std::vector<size_t>& order = reader_order[r];
    for (size_t i = 0; i < kSketches; ++i) order.push_back(i);
    Shuffle(&order, &rng);
  }

  // ---- set-up: load, partition, capture the 8 sketches; several times,
  // keeping the last system ------------------------------------------------
  Env env;
  std::vector<double> setup_seconds;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    env.sys.reset();  // the system refers to the database: drop it first
    env.db.reset();
    const int64_t setup_start = NowNs();
    env.db = std::make_unique<imp::Database>();
    Require(imp::CreateSyntheticTable(env.db.get(), spec), "load edb1");
    imp::ImpConfig config;
    config.mode = imp::ExecutionMode::kIncremental;
    config.strategy = imp::MaintenanceStrategy::kEager;
    config.eager_batch_size = 8;
    config.async_ingestion = true;
    config.ingest_queue_capacity = 256;
    config.ingest_apply_batch = 8;
    config.maintenance_threads = 1;
    env.sys = std::make_unique<imp::ImpSystem>(env.db.get(), config);
    Require(env.sys->RegisterPartition(imp::RangePartition::EquiWidthInt(
                "edb1", "a", 1, 0, static_cast<int64_t>(kGroups) - 1,
                kFragments)),
            "partition edb1.a");
    for (const std::string& sql : templates) {
      Require(env.sys->Query(sql).status(), "initial capture");
    }
    setup_seconds.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  }
  report.EndToEnd("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  imp::ImpSystem* sys = env.sys.get();
  imp::Database* db = env.db.get();

#ifdef __linux__
  // Let the producer's short sleeps end on time (default slack is 50 us).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif

  // ---- measured window ---------------------------------------------------
  Client producer(0, sys, /*per_op_stats=*/false);
  std::vector<std::unique_ptr<Client>> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Client>(
        static_cast<uint32_t>(r + 1), sys, /*per_op_stats=*/false));
  }
  TraceAlternator alternator(opt.trace);
  std::atomic<bool> stop{false};
  const imp::ImpSystemStats before = sys->stats();

  std::vector<std::thread> threads;
  ReaderJoin join_readers{&stop, &threads};
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Client& client = *readers[r];
      const std::vector<size_t>& order = reader_order[r];
      imp::PlanPtr plan;
      imp::Relation answer;
      for (size_t next = 0; !stop.load(std::memory_order_acquire); ++next) {
        const bool traced = alternator.traced();
        client.tracer().set_enabled(traced);
        client.Query(templates[order[next % order.size()]], &plan, &answer);
        alternator.CountOps(traced, 1);
      }
    });
  }

  std::deque<Pending> pending;
  LatencyLog visible_ms, late_ms;
  double backlog_sum = 0;
  auto observe_visibility = [&] {
    const uint64_t stable = db->StableVersion();
    const int64_t now = NowNs();
    while (!pending.empty() && pending.front().ticket <= stable) {
      visible_ms.push_back(static_cast<double>(now - pending.front().due_ns) /
                           1e6);
      pending.pop_front();
    }
  };
  const int64_t start = NowNs();
  for (size_t i = 0; i < num_sends; ++i) {
    const int64_t due = start + static_cast<int64_t>(i) * kSendPeriodNs;
    int64_t now = NowNs();
    while (now < due) {
      observe_visibility();
      // Sleep in poll-sized steps, then spin through the last stretch so
      // the send leaves on time (a sleep wakes several us late).
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(kPollNs, due - now - kSpinNs)));
      }
      now = NowNs();
    }
    late_ms.push_back(static_cast<double>(now - due) / 1e6);
    const bool traced = alternator.traced();
    producer.tracer().set_enabled(traced);
    uint64_t ticket = 0;
    if (producer.Insert(sends[i], due, &ticket)) pending.push_back({ticket, due});
    alternator.CountOps(traced, 1);
    backlog_sum += static_cast<double>(db->CurrentVersion() - db->StableVersion());
    alternator.Tick(static_cast<double>(NowNs() - start) / 1e9);
  }
  // The window closes one send period after the last scheduled send.
  while (NowNs() < start + window_ns) {
    observe_visibility();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
  }
  const double window_s = static_cast<double>(NowNs() - start) / 1e9;
  stop.store(true, std::memory_order_release);
  alternator.Finish(window_s);
  // Tickets still in flight become visible after the window; keep timing
  // them at the same poll granularity. A ticket still invisible after the
  // drain deadline counts as a failed write.
  const int64_t drain_deadline = NowNs() + kDrainDeadlineNs;
  while (!pending.empty() && NowNs() < drain_deadline) {
    observe_visibility();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
  }
  const size_t never_visible = pending.size();
  for (std::thread& t : threads) t.join();
  Require(sys->WaitForIngest(), "drain ingestion");
  sys->Health();  // refreshes queue peak and storage counters
  const imp::ImpSystemStats after = sys->stats();
  LayerTotals totals;
  totals.AddEpisode(sys, before, after);

  // ---- oracle: drained, maintained, every template, kOracleRounds times
  // (each check also pairs the IMP answer's time with the no-sketch one) ---
  Require(sys->MaintainAll(), "final maintenance");
  size_t oracle_checks = 0, mismatches = 0;
  ReplayTotals replay;
  SpeedupLog speedup;
  Client checker(kReaders + 1, sys, /*per_op_stats=*/false);
  checker.tracer().set_enabled(opt.trace);
  for (size_t round = 0; round < kOracleRounds; ++round) {
    for (const std::string& sql : templates) {
      imp::PlanPtr plan;
      imp::Relation answer;
      ++oracle_checks;
      if (!checker.Query(sql, &plan, &answer)) {
        ++mismatches;
        continue;
      }
      double no_sketch_ms = 0;
      if (!OracleAgrees(*db, plan, answer, &no_sketch_ms)) ++mismatches;
      speedup.Add(plan, no_sketch_ms, checker.last_plan_ms());
      if (opt.trace) {
        ReplayWithSketch(sys, plan, answer, &checker.tracer(), &replay);
      }
    }
  }
  mismatches += replay.mismatches;

  // ---- report ----------------------------------------------------------------
  std::vector<const Client*> clients = {&producer};
  for (const auto& r : readers) clients.push_back(r.get());
  report.Note("window_s", std::to_string(window_s));
  size_t completed = 0;
  for (const Client* c : clients) completed += c->ops() - c->failed();
  ReportEndToEnd(clients, static_cast<double>(completed) / window_s, completed,
                 oracle_checks, mismatches + never_visible, &report);
  speedup.Report(&report);
  report.Latency("visible", visible_ms);
  report.EndToEnd("generator_late_ms", NearestRank(late_ms, 0.5), "ms",
                  late_ms.size());
  if (SupportsPercentile(late_ms.size(), 0.99)) {
    report.EndToEnd("generator_late_p99_ms", NearestRank(late_ms, 0.99), "ms",
                    late_ms.size());
  }
  size_t ops = 0;
  for (const Client* c : clients) ops += c->ops();
  out.attempted = ops + oracle_checks + replay.replays;
  out.failed = never_visible;
  for (const Client* c : clients) out.failed += c->failed();
  out.mismatches = mismatches;
  if (opt.trace) {
    LayerInputs in;
    in.clients = clients;
    in.replay = &replay;
    in.backlog_mean = num_sends > 0 ? backlog_sum / static_cast<double>(num_sends)
                                    : 0.0;
    in.backlog_samples = num_sends;
    in.alternator = &alternator;
    ReportLayers(totals, in, &report);
    clients.push_back(&checker);
    WriteClientSpans(opt, clients);
  }
  return out;
}

}  // namespace perfbench
