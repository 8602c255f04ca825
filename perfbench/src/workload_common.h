// Pieces shared by the three workloads: command options, the client that
// times (and, in the traced run, spans) each operation, the correctness
// oracle, the traced-only sketch replay, the active-time window, the
// single-client episode loop, and the per-layer roll-ups read from the
// system's own stats.

#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "middleware/imp_system.h"
#include "report.h"
#include "sql/binder.h"
#include "storage/database.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced run; empty = none)
};

/// What a workload hands back to main.
struct RunResult {
  Report report;
  size_t attempted = 0;   ///< client operations + oracle checks + replays
  size_t failed = 0;      ///< operations that returned an error
  size_t mismatches = 0;  ///< oracle checks or replays that disagreed
};

/// One freshly set-up system. The Database outlives the ImpSystem.
struct Env {
  std::unique_ptr<imp::Database> db;
  std::unique_ptr<imp::ImpSystem> sys;
};

/// Print `status` and exit with code 2 when a set-up step failed: the
/// benchmark's workloads are chosen so that none does.
void Require(const imp::Status& status, const char* what);

/// Independent sub-seed `stream` of the workload seed (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Median of a non-empty sample (upper median for even sizes).
double Median(std::vector<double> values);

/// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* values, imp::Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1],
              (*values)[static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

/// Active measurement time: the sum of the intervals between Resume() and
/// Pause(). Set-up, oracle checks and replays run paused.
class Window {
 public:
  void Resume() { resumed_ns_ = NowNs(); }
  void Pause() { active_ns_ += NowNs() - resumed_ns_; resumed_ns_ = -1; }
  double ActiveSeconds() const {
    int64_t ns = active_ns_ + (resumed_ns_ >= 0 ? NowNs() - resumed_ns_ : 0);
    return static_cast<double>(ns) / 1e9;
  }

 private:
  int64_t active_ns_ = 0;
  int64_t resumed_ns_ = -1;
};

/// Traced run: alternate traced and untraced blocks of ~kBlockSeconds of
/// active time, so both see the same data growth, and compare their
/// operation rates (the tracing overhead). In the untraced run it stays
/// untraced. Counting is thread-safe; Tick()/Switch() are called by one
/// driving thread.
class TraceAlternator {
 public:
  static constexpr double kBlockSeconds = 0.25;

  explicit TraceAlternator(bool trace_run) : trace_run_(trace_run) {
    traced_.store(trace_run, std::memory_order_relaxed);
  }
  bool traced() const { return traced_.load(std::memory_order_relaxed); }
  void CountOps(bool traced, size_t n) {
    ops_[traced ? 1 : 0].fetch_add(n, std::memory_order_relaxed);
  }
  /// Close the current block if it has run long enough.
  void Tick(double active_seconds) {
    if (active_seconds - block_start_ >= kBlockSeconds) Switch(active_seconds);
  }
  /// Close the current block now (workloads whose natural period is
  /// longer than a block switch once per period).
  void Switch(double active_seconds);
  /// Close the last block at the end of the window.
  void Finish(double active_seconds);
  double Rate(bool traced) const;
  /// Untraced ops/s over traced ops/s, minus 1, in percent.
  double OverheadPct() const;

 private:
  bool trace_run_;
  std::atomic<bool> traced_{false};
  std::atomic<size_t> ops_[2] = {0, 0};
  double seconds_[2] = {0, 0};
  double block_start_ = 0;
};

/// Latency log of one operation type, in milliseconds.
using LatencyLog = std::vector<double>;

/// One client: issues operations through the public layer entry points —
/// Binder (sql), ImpSystem (middleware) — timing each one and, while its
/// tracer is enabled, recording a root span per operation with a child
/// span per layer call. With `per_op_stats` (single-client workloads,
/// where every op boundary is a quiescent point) a traced op also
/// snapshots ImpSystemStats before and after, attributing the deltas to
/// that op.
class Client {
 public:
  Client(uint32_t id, imp::ImpSystem* sys, bool per_op_stats);

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Bind + run one query. Returns false (counted in failed()) on error.
  bool Query(const std::string& sql, imp::PlanPtr* plan,
             imp::Relation* answer);
  /// Apply a pre-bound insert. `due_ns` (when >= 0) is the scheduled send
  /// time the latency is measured from (open loop). `ticket` receives the
  /// returned version.
  bool Insert(const imp::BoundUpdate& update, int64_t due_ns = -1,
              uint64_t* ticket = nullptr);
  /// Bind + apply one DELETE statement.
  bool Delete(const std::string& sql);

  const LatencyLog& query_ms() const { return query_ms_; }
  /// QueryPlan time of the last successful query (bind excluded).
  double last_plan_ms() const { return last_plan_ms_; }
  const LatencyLog& insert_ms() const { return insert_ms_; }
  const LatencyLog& delete_ms() const { return delete_ms_; }
  size_t failed() const { return failed_; }
  size_t ops() const {
    return query_ms_.size() + insert_ms_.size() + delete_ms_.size() + failed_;
  }

  /// Per-op attribution of traced single-client ops.
  struct Attribution {
    double query_self_s = 0;  ///< QueryPlan time minus the system's own
                              ///< query/capture/maintain timers
    size_t queries = 0;
    double insert_apply_s = 0;  ///< update_seconds delta per insert
    size_t inserts = 0;
    double delete_apply_s = 0;  ///< update_seconds delta per delete
    size_t deletes = 0;
  };
  const Attribution& attribution() const { return attribution_; }

 private:
  imp::ImpSystem* sys_;
  imp::Binder binder_;
  Tracer tracer_;
  bool per_op_stats_;
  const char* write_span_;
  LatencyLog query_ms_, insert_ms_, delete_ms_;
  double last_plan_ms_ = 0;
  size_t failed_ = 0;
  Attribution attribution_;
  imp::ImpSystemStats before_;
};

/// Oracle: execute `plan` without any sketch over a freshly pinned view of
/// `db` and compare with `answer` as bags. Callers run it at a quiescent
/// point, so the view's watermark is the one the answer was computed at.
/// `execute_ms`, when given, receives the time of the no-sketch execution.
bool OracleAgrees(const imp::Database& db, const imp::PlanPtr& plan,
                  const imp::Relation& answer, double* execute_ms = nullptr);

/// Paired measure of what the sketches buy: for each oracle-checked query,
/// the no-sketch execution time over the IMP QueryPlan time of the same
/// query at the same watermark, taken milliseconds apart. The host's speed
/// changes over seconds to minutes, so most of it cancels within a pair.
class SpeedupLog {
 public:
  void Add(const imp::PlanPtr& plan, double no_sketch_ms, double imp_ms) {
    if (no_sketch_ms > 0 && imp_ms > 0) {
      ratios_[plan->TemplateKey()].push_back(no_sketch_ms / imp_ms);
    }
  }
  /// Reports `sketch_speedup`: the geometric mean over query templates of
  /// each template's median ratio, so every template weighs the same
  /// however often it ran; the sample count is the number of pairs.
  void Report(perfbench::Report* report) const;

 private:
  std::map<std::string, std::vector<double>> ratios_;
};

/// Scan counters of the traced-only sketch replays.
struct ReplayTotals {
  size_t replays = 0;
  size_t rows_scanned = 0;
  size_t chunks_scanned = 0;
  size_t chunks_skipped = 0;
  size_t mismatches = 0;
};

/// Traced-only replay of one sketch-answered query: find the entry the
/// middleware would reuse for `plan`, pin a ReadView, apply the use
/// rewrite to the entry's published snapshot and execute it, accumulating
/// the executor's ScanStats. Spans: a "replay" root with storage, sketch
/// and exec children. Skipped when no current entry exists. The replayed
/// answer must agree with `answer`.
void ReplayWithSketch(imp::ImpSystem* sys, const imp::PlanPtr& plan,
                      const imp::Relation& answer, Tracer* tracer,
                      ReplayTotals* totals);

/// Per-layer counters folded over one or more measured episodes: stats
/// deltas over each measured window, plus end-of-episode readings of the
/// sketch store, the maintainers and the backend.
struct LayerTotals {
  size_t episodes = 0;
  bool async = false;
  // ImpSystemStats deltas over the measured windows.
  size_t queries = 0, sketch_uses = 0, snapshot_reads = 0;
  size_t degraded_queries = 0, rounds = 0;
  size_t annotation_hits = 0, annotation_passes = 0, scalar_fallback_rows = 0;
  size_t ingest_applied = 0, ingest_batches = 0;
  double query_s = 0, capture_s = 0, maintain_s = 0, ingest_apply_s = 0;
  // Cumulative since each system's construction (set-up captures count).
  size_t captures = 0;
  double capture_total_s = 0;
  // Maintainer::stats() summed over every entry at each episode's end.
  size_t delta_rows = 0, bloom_pruned_rows = 0, rows_copied = 0;
  size_t index_fallback_scans = 0;
  // End-of-episode readings, summed (divided by episodes when reported).
  double fragment_ratio_sum = 0, memory_mb_sum = 0, index_bytes_sum = 0;
  size_t shards_built = 0, shards_reused = 0, boxed_cells = 0;
  size_t queue_peak = 0;  ///< maximum over episodes

  /// Fold one episode. `after` is read at a quiescent point after
  /// sys->Health() refreshed the snapshot-style counters.
  void AddEpisode(imp::ImpSystem* sys, const imp::ImpSystemStats& before,
                  const imp::ImpSystemStats& after);
};

/// Inputs of the per-layer report beyond the counters.
struct LayerInputs {
  std::vector<const Client*> clients;
  const ReplayTotals* replay = nullptr;
  double backlog_mean = 0;  ///< async only
  size_t backlog_samples = 0;
  const TraceAlternator* alternator = nullptr;
};
void ReportLayers(const LayerTotals& totals, const LayerInputs& in,
                  Report* report);

/// End-to-end metrics shared by every workload. `ops_per_s` is measured
/// by the caller from `rate_samples` observations. `other_failures` are
/// failures the clients did not count (oracle mismatches, lost writes).
void ReportEndToEnd(const std::vector<const Client*>& clients,
                    double ops_per_s, size_t rate_samples,
                    size_t oracle_checks, size_t other_failures,
                    Report* report);

/// Dump the clients' spans to `opt.trace_out` (traced run only).
void WriteClientSpans(const Options& opt,
                      const std::vector<const Client*>& clients);

/// Single-client episodes: each episode draws its own inputs (base data
/// and operation stream) from the seed and the episode number, sets up a
/// fresh system over them (one set-up time sample), then runs the stream
/// with the window running. Per-operation cost then depends only on the
/// position within the episode and on that episode's inputs, never on how
/// many operations a faster or slower system got through. Every set-up
/// counts towards setup_s, and each episode gives one throughput sample:
/// a run reports their median, so one dataset or one slow stretch of the
/// host does not set the result.
class EpisodeRunner {
 public:
  /// `prepare(episode)` generates that episode's inputs, before any clock
  /// starts; `setup()` then builds the system over them, timed.
  EpisodeRunner(const Options& opt, std::function<void(size_t)> prepare,
                std::function<Env()> setup)
      : opt_(opt),
        prepare_(std::move(prepare)),
        setup_(std::move(setup)),
        alternator_(opt.trace) {}

  /// Run episodes until the window holds opt.seconds of active time and
  /// `enough()` is true (checked between episodes). `body` runs one
  /// episode's stream through the client; it calls Check() on sampled
  /// answers and Tick() between operations.
  void Run(const std::function<void(Client&)>& body,
           const std::function<bool()>& enough);

  /// Oracle-check one answer (and replay it when traced), window paused.
  void Check(const imp::PlanPtr& plan, const imp::Relation& answer);

  Window& window() { return window_; }
  TraceAlternator& alternator() { return alternator_; }
  /// Successful inserts / queries over all episodes so far.
  size_t inserts() const;
  size_t queries() const;

  /// Report every metric and fill the result counters.
  void Finish(RunResult* out);

 private:
  const Options& opt_;
  std::function<void(size_t)> prepare_;
  std::function<Env()> setup_;
  Env env_;
  Window window_;
  TraceAlternator alternator_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<double> setup_seconds_;
  std::vector<double> episode_rates_;  ///< completed ops / active seconds
  LayerTotals totals_;
  ReplayTotals replay_;
  size_t oracle_checks_ = 0;
  size_t mismatches_ = 0;
  SpeedupLog speedup_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_
