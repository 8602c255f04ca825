#include "workload_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "exec/executor.h"
#include "sketch/reuse.h"
#include "sketch/use_rewrite.h"
#include "storage/read_view.h"

namespace perfbench {

using imp::ImpSystemStats;

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void Require(const imp::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// ---- TraceAlternator ---------------------------------------------------------

void TraceAlternator::Switch(double active_seconds) {
  if (!trace_run_) return;
  bool was = traced();
  seconds_[was ? 1 : 0] += active_seconds - block_start_;
  block_start_ = active_seconds;
  traced_.store(!was, std::memory_order_relaxed);
}

void TraceAlternator::Finish(double active_seconds) {
  seconds_[traced() ? 1 : 0] += active_seconds - block_start_;
  block_start_ = active_seconds;
}

double TraceAlternator::Rate(bool traced) const {
  int i = traced ? 1 : 0;
  return Ratio(static_cast<double>(ops_[i].load(std::memory_order_relaxed)),
               seconds_[i]);
}

double TraceAlternator::OverheadPct() const {
  double traced_rate = Rate(true);
  return traced_rate > 0 ? (Rate(false) / traced_rate - 1.0) * 100.0 : 0.0;
}

// ---- Client --------------------------------------------------------------------

Client::Client(uint32_t id, imp::ImpSystem* sys, bool per_op_stats)
    : sys_(sys),
      binder_(sys->db()),
      tracer_(id),
      per_op_stats_(per_op_stats),
      write_span_(sys->config().async_ingestion ? "ingest.enqueue"
                                                : "middleware.update") {}

bool Client::Query(const std::string& sql, imp::PlanPtr* plan,
                   imp::Relation* answer) {
  const bool attribute = per_op_stats_ && tracer_.enabled();
  if (attribute) before_ = sys_->stats();
  const int64_t start = NowNs();
  int64_t plan_ns = 0;
  bool ok = false;
  {
    SpanScope op(&tracer_, "op.query");
    imp::Result<imp::PlanPtr> bound = [&] {
      SpanScope span(&tracer_, "sql.bind");
      return binder_.BindQuery(sql);
    }();
    if (bound.ok()) {
      *plan = bound.value();
      const int64_t plan_start = NowNs();
      SpanScope span(&tracer_, "middleware.query_plan");
      imp::Result<imp::Relation> result = sys_->QueryPlan(*plan);
      plan_ns = NowNs() - plan_start;
      if (result.ok()) {
        *answer = std::move(result).value();
        ok = true;
      }
    }
  }
  const int64_t end = NowNs();
  if (!ok) {
    ++failed_;
    return false;
  }
  query_ms_.push_back(static_cast<double>(end - start) / 1e6);
  last_plan_ms_ = static_cast<double>(plan_ns) / 1e6;
  if (attribute) {
    const ImpSystemStats& after = sys_->stats();
    attribution_.query_self_s +=
        static_cast<double>(plan_ns) / 1e9 -
        ((after.query_seconds - before_.query_seconds) +
         (after.capture_seconds - before_.capture_seconds) +
         (after.maintain_seconds - before_.maintain_seconds));
    ++attribution_.queries;
  }
  return true;
}

bool Client::Insert(const imp::BoundUpdate& update, int64_t due_ns,
                    uint64_t* ticket) {
  const bool attribute = per_op_stats_ && tracer_.enabled();
  if (attribute) before_ = sys_->stats();
  const int64_t start = NowNs();
  imp::Result<uint64_t> version = [&] {
    SpanScope op(&tracer_, "op.insert");
    SpanScope span(&tracer_, write_span_);
    return sys_->UpdateBound(update);
  }();
  const int64_t end = NowNs();
  if (!version.ok()) {
    ++failed_;
    return false;
  }
  insert_ms_.push_back(
      static_cast<double>(end - (due_ns >= 0 ? due_ns : start)) / 1e6);
  if (ticket != nullptr) *ticket = version.value();
  if (attribute) {
    attribution_.insert_apply_s +=
        sys_->stats().update_seconds - before_.update_seconds;
    ++attribution_.inserts;
  }
  return true;
}

bool Client::Delete(const std::string& sql) {
  const bool attribute = per_op_stats_ && tracer_.enabled();
  if (attribute) before_ = sys_->stats();
  const int64_t start = NowNs();
  bool ok = false;
  {
    SpanScope op(&tracer_, "op.delete");
    imp::Result<imp::BoundStatement> bound = [&] {
      SpanScope span(&tracer_, "sql.bind");
      return binder_.BindSql(sql);
    }();
    if (bound.ok()) {
      SpanScope span(&tracer_, write_span_);
      ok = sys_->UpdateBound(bound.value().update).ok();
    }
  }
  const int64_t end = NowNs();
  if (!ok) {
    ++failed_;
    return false;
  }
  delete_ms_.push_back(static_cast<double>(end - start) / 1e6);
  if (attribute) {
    attribution_.delete_apply_s +=
        sys_->stats().update_seconds - before_.update_seconds;
    ++attribution_.deletes;
  }
  return true;
}

// ---- Oracle and replay -----------------------------------------------------------

bool OracleAgrees(const imp::Database& db, const imp::PlanPtr& plan,
                  const imp::Relation& answer, double* execute_ms) {
  imp::ReadView view = db.OpenReadView();
  imp::Executor exec(&db, &view);
  const int64_t start = NowNs();
  imp::Result<imp::Relation> full = exec.Execute(plan);
  if (execute_ms != nullptr) {
    *execute_ms = static_cast<double>(NowNs() - start) / 1e6;
  }
  return full.ok() && full.value().SameBag(answer);
}

void SpeedupLog::Report(perfbench::Report* report) const {
  if (ratios_.empty()) return;
  double log_sum = 0;
  size_t pairs = 0;
  for (const auto& [key, ratios] : ratios_) {
    log_sum += std::log(Median(ratios));
    pairs += ratios.size();
  }
  report->EndToEnd("sketch_speedup",
                   std::exp(log_sum / static_cast<double>(ratios_.size())), "x",
                   pairs);
}

void ReplayWithSketch(imp::ImpSystem* sys, const imp::PlanPtr& plan,
                      const imp::Relation& answer, Tracer* tracer,
                      ReplayTotals* totals) {
  const std::string key = plan->TemplateKey();
  imp::SketchEntry* entry = nullptr;
  for (imp::SketchEntry* candidate : sys->sketches().AllEntries()) {
    if (candidate->health != imp::SketchHealth::kQuarantined &&
        candidate->plan->TemplateKey() == key &&
        imp::CanReuseSketch(candidate->plan, plan)) {
      entry = candidate;
      break;
    }
  }
  if (entry == nullptr) return;

  SpanScope root(tracer, "replay");
  imp::ReadView view = [&] {
    SpanScope span(tracer, "storage.open_read_view");
    return sys->db()->OpenReadView();
  }();
  std::shared_ptr<const imp::SketchSnapshot> snapshot = entry->Snapshot();
  for (const std::string& table : entry->tables) {
    if (view.TableVersion(table) > snapshot->valid_version()) return;
  }
  imp::PlanPtr rewritten = [&] {
    SpanScope span(tracer, "sketch.use_rewrite");
    return imp::ApplyUseRewrite(plan, sys->catalog(), *snapshot,
                                &entry->filter_tables);
  }();
  imp::Executor exec(sys->db(), &view);
  imp::Result<imp::Relation> result = [&] {
    SpanScope span(tracer, "exec.execute");
    return exec.Execute(rewritten);
  }();
  ++totals->replays;
  if (!result.ok() || !result.value().SameBag(answer)) ++totals->mismatches;
  const imp::ScanStats& scan = exec.scan_stats();
  totals->rows_scanned += scan.rows_scanned;
  totals->chunks_scanned += scan.chunks_scanned;
  totals->chunks_skipped += scan.chunks_skipped;
}

// ---- Per-layer counters ----------------------------------------------------------

void LayerTotals::AddEpisode(imp::ImpSystem* sys, const ImpSystemStats& b,
                             const ImpSystemStats& a) {
  ++episodes;
  async = sys->config().async_ingestion;
  queries += a.queries - b.queries;
  sketch_uses += a.sketch_uses - b.sketch_uses;
  snapshot_reads += a.snapshot_reads - b.snapshot_reads;
  degraded_queries += a.degraded_queries - b.degraded_queries;
  rounds += a.batch_rounds - b.batch_rounds;
  annotation_hits += a.annotation_hits - b.annotation_hits;
  annotation_passes += a.annotation_passes - b.annotation_passes;
  scalar_fallback_rows += a.scalar_fallback_rows - b.scalar_fallback_rows;
  ingest_applied += a.ingest_applied - b.ingest_applied;
  ingest_batches += a.ingest_batches - b.ingest_batches;
  query_s += a.query_seconds - b.query_seconds;
  capture_s += a.capture_seconds - b.capture_seconds;
  maintain_s += a.maintain_seconds - b.maintain_seconds;
  ingest_apply_s += a.ingest_apply_seconds - b.ingest_apply_seconds;
  captures += a.sketch_captures;
  capture_total_s += a.capture_seconds;

  std::vector<imp::SketchEntry*> entries = sys->sketches().AllEntries();
  const double total_fragments =
      static_cast<double>(sys->catalog().total_fragments());
  double fragment_sum = 0;
  for (imp::SketchEntry* e : entries) {
    fragment_sum += Ratio(
        static_cast<double>(e->Snapshot()->sketch.NumFragments()),
        total_fragments);
    if (e->maintainer == nullptr) continue;
    const imp::MaintainStats& s = e->maintainer->stats();
    delta_rows += s.delta_rows_processed;
    bloom_pruned_rows += s.bloom_pruned_rows;
    rows_copied += s.rows_copied;
    index_fallback_scans += s.index_fallback_scans;
  }
  fragment_ratio_sum +=
      Ratio(fragment_sum, static_cast<double>(entries.size()));
  memory_mb_sum +=
      static_cast<double>(sys->db()->MemoryBytes()) / (1 << 20);
  index_bytes_sum += static_cast<double>(a.index_bytes);
  shards_built += a.index_shards_built;
  shards_reused += a.index_shards_reused;
  boxed_cells += a.boxed_fallback_cells;
  queue_peak = std::max(queue_peak, a.ingest_queue_peak);
}

void ReportLayers(const LayerTotals& t, const LayerInputs& in,
                  Report* report) {
  std::vector<const Tracer*> tracers;
  Client::Attribution attr;
  for (const Client* c : in.clients) {
    tracers.push_back(&c->tracer());
    const Client::Attribution& part = c->attribution();
    attr.query_self_s += part.query_self_s;
    attr.queries += part.queries;
    attr.insert_apply_s += part.insert_apply_s;
    attr.inserts += part.inserts;
    attr.delete_apply_s += part.delete_apply_s;
    attr.deletes += part.deletes;
  }
  std::map<std::string, SpanTotals> spans = AggregateSpans(tracers);
  for (const auto& [name, span] : spans) {
    char line[128];
    std::snprintf(line, sizeof(line), "n=%zu mean_us=%.3f self_us=%.3f",
                  span.count, span.MeanUs(),
                  Ratio(static_cast<double>(span.self_ns) / 1e3,
                        static_cast<double>(span.count)));
    report->Note("span." + name, line);
  }
  const double queries = static_cast<double>(t.queries);
  const double episodes = static_cast<double>(t.episodes);

  // sql
  report->Layer("sql.bind_us", spans["sql.bind"].MeanUs(), "us",
                spans["sql.bind"].count);

  // middleware
  if (t.async) {
    // Stats are only read after the window: attribute its totals. Lazy
    // repairs on the query path stay in the self time, because the
    // worker's eager rounds share maintain_seconds.
    const SpanTotals& plan_spans = spans["middleware.query_plan"];
    const double system_us = Ratio(t.query_s + t.capture_s, queries) * 1e6;
    report->Layer("middleware.query_self_us", plan_spans.MeanUs() - system_us,
                  "us", plan_spans.count);
  } else {
    report->Layer("middleware.query_self_us",
                  Ratio(attr.query_self_s, static_cast<double>(attr.queries)) *
                      1e6,
                  "us", attr.queries);
  }
  report->Layer("middleware.sketch_use_ratio",
                Ratio(static_cast<double>(t.sketch_uses), queries), "ratio",
                t.queries);
  report->Layer("middleware.snapshot_read_ratio",
                Ratio(static_cast<double>(t.snapshot_reads),
                      static_cast<double>(t.sketch_uses)),
                "ratio", t.sketch_uses);
  report->Layer("middleware.degraded_queries",
                static_cast<double>(t.degraded_queries), "count", t.queries);
  report->Layer("middleware.rounds", static_cast<double>(t.rounds), "count",
                t.episodes);

  // sketch (set-up captures included)
  report->Layer("sketch.captures", static_cast<double>(t.captures), "count",
                t.episodes);
  report->Layer("sketch.capture_ms",
                Ratio(t.capture_total_s, static_cast<double>(t.captures)) * 1e3,
                "ms", t.captures);
  report->Layer("sketch.fragment_ratio", Ratio(t.fragment_ratio_sum, episodes),
                "ratio", t.episodes);

  // imp
  report->Layer("imp.maintain_ms_per_round",
                Ratio(t.maintain_s, static_cast<double>(t.rounds)) * 1e3, "ms",
                t.rounds);
  report->Layer("imp.maintain_us_per_delta_row",
                Ratio(t.maintain_s, static_cast<double>(t.delta_rows)) * 1e6,
                "us", t.delta_rows);
  report->Layer("imp.delta_rows", static_cast<double>(t.delta_rows), "count",
                t.episodes);
  report->Layer("imp.bloom_pruned_ratio",
                Ratio(static_cast<double>(t.bloom_pruned_rows),
                      static_cast<double>(t.delta_rows)),
                "ratio", t.delta_rows);
  report->Layer("imp.rows_copied", static_cast<double>(t.rows_copied),
                "count", t.episodes);
  report->Layer("imp.annotation_hit_ratio",
                Ratio(static_cast<double>(t.annotation_hits),
                      static_cast<double>(t.annotation_hits +
                                          t.annotation_passes)),
                "ratio", t.annotation_hits + t.annotation_passes);
  report->Layer("imp.index_fallback_scans",
                static_cast<double>(t.index_fallback_scans), "count",
                t.episodes);

  // exec
  report->Layer("exec.query_ms", Ratio(t.query_s, queries) * 1e3, "ms",
                t.queries);
  report->Layer("exec.scalar_fallback_rows",
                static_cast<double>(t.scalar_fallback_rows), "count",
                t.queries);
  const ReplayTotals& r = *in.replay;
  report->Layer("exec.rows_scanned_per_query",
                Ratio(static_cast<double>(r.rows_scanned),
                      static_cast<double>(r.replays)),
                "rows", r.replays);
  report->Layer("exec.chunk_skip_ratio",
                Ratio(static_cast<double>(r.chunks_skipped),
                      static_cast<double>(r.chunks_scanned + r.chunks_skipped)),
                "ratio", r.replays);

  // storage
  if (t.async) {
    // The worker applies (and publishes) the statements, batch-amortized.
    report->Layer("storage.insert_apply_us",
                  Ratio(t.ingest_apply_s, static_cast<double>(t.ingest_applied)) *
                      1e6,
                  "us", t.ingest_applied);
  } else {
    report->Layer("storage.insert_apply_us",
                  Ratio(attr.insert_apply_s, static_cast<double>(attr.inserts)) *
                      1e6,
                  "us", attr.inserts);
  }
  if (attr.deletes > 0) {
    report->Layer("storage.delete_apply_ms",
                  Ratio(attr.delete_apply_s, static_cast<double>(attr.deletes)) *
                      1e3,
                  "ms", attr.deletes);
  }
  report->Layer("storage.memory_mb", Ratio(t.memory_mb_sum, episodes), "MB",
                t.episodes);
  report->Layer("storage.index_bytes", Ratio(t.index_bytes_sum, episodes),
                "bytes", t.episodes);
  report->Layer("storage.index_shard_reuse_ratio",
                Ratio(static_cast<double>(t.shards_reused),
                      static_cast<double>(t.shards_built + t.shards_reused)),
                "ratio", t.shards_built + t.shards_reused);
  report->Layer("storage.boxed_fallback_cells",
                static_cast<double>(t.boxed_cells), "count", t.episodes);

  // ingest (the asynchronous write path; zero in synchronous workloads)
  if (t.async) {
    const SpanTotals& enqueue = spans["ingest.enqueue"];
    report->Layer("ingest.enqueue_us", enqueue.MeanUs(), "us", enqueue.count);
    report->Layer("ingest.apply_us_per_stmt",
                  Ratio(t.ingest_apply_s, static_cast<double>(t.ingest_applied)) *
                      1e6,
                  "us", t.ingest_applied);
  }
  report->Layer("ingest.queue_peak", static_cast<double>(t.queue_peak),
                "count", t.episodes);
  report->Layer("ingest.stmts_per_batch",
                Ratio(static_cast<double>(t.ingest_applied),
                      static_cast<double>(t.ingest_batches)),
                "count", t.ingest_batches);
  report->Layer("ingest.backlog_stmts", in.backlog_mean, "count",
                in.backlog_samples);

  // the traced run's own overhead
  report->Layer("trace.overhead_pct", in.alternator->OverheadPct(), "%", 1);
  report->Layer("trace.untraced_ops_per_s", in.alternator->Rate(false), "1/s",
                1);
  report->Layer("trace.traced_ops_per_s", in.alternator->Rate(true), "1/s", 1);
}

// ---- End-to-end metrics --------------------------------------------------------

namespace {

LatencyLog Merge(const std::vector<const Client*>& clients,
                 const LatencyLog& (Client::*log)() const) {
  LatencyLog all;
  for (const Client* c : clients) {
    const LatencyLog& part = (c->*log)();
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

}  // namespace

void ReportEndToEnd(const std::vector<const Client*>& clients,
                    double ops_per_s, size_t rate_samples,
                    size_t oracle_checks, size_t other_failures,
                    Report* report) {
  size_t ops = 0, failed = 0;
  for (const Client* c : clients) {
    ops += c->ops();
    failed += c->failed();
  }
  report->EndToEnd("ops_per_s", ops_per_s, "1/s", rate_samples);
  report->Latency("query", Merge(clients, &Client::query_ms));
  report->Latency("insert", Merge(clients, &Client::insert_ms));
  report->Latency("delete", Merge(clients, &Client::delete_ms));
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  report->EndToEnd("error_rate",
                   Ratio(static_cast<double>(failed + other_failures),
                         static_cast<double>(ops + oracle_checks)),
                   "ratio", ops + oracle_checks);
}

void WriteClientSpans(const Options& opt,
                      const std::vector<const Client*>& clients) {
  if (!opt.trace || opt.trace_out.empty()) return;
  std::vector<const Tracer*> tracers;
  for (const Client* c : clients) tracers.push_back(&c->tracer());
  if (!WriteSpans(opt.trace_out, tracers)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 opt.trace_out.c_str());
  }
}

// ---- Episodes --------------------------------------------------------------------

void EpisodeRunner::Run(const std::function<void(Client&)>& body,
                        const std::function<bool()>& enough) {
  do {
    env_.sys.reset();  // the system refers to the database: drop it first
    env_.db.reset();
    prepare_(setup_seconds_.size());
    const int64_t setup_start = NowNs();
    env_ = setup_();
    setup_seconds_.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    clients_.push_back(std::make_unique<Client>(
        static_cast<uint32_t>(clients_.size()), env_.sys.get(),
        /*per_op_stats=*/true));
    Client& client = *clients_.back();
    client.tracer().set_enabled(alternator_.traced());
    const ImpSystemStats before = env_.sys->stats();
    const double active_before = window_.ActiveSeconds();
    window_.Resume();
    body(client);
    window_.Pause();
    episode_rates_.push_back(
        Ratio(static_cast<double>(client.ops() - client.failed()),
              window_.ActiveSeconds() - active_before));
    env_.sys->Health();  // refreshes the snapshot-style storage counters
    totals_.AddEpisode(env_.sys.get(), before, env_.sys->stats());
  } while (window_.ActiveSeconds() < opt_.seconds || !enough());
}

void EpisodeRunner::Check(const imp::PlanPtr& plan,
                          const imp::Relation& answer) {
  window_.Pause();
  ++oracle_checks_;
  Client& client = *clients_.back();
  double no_sketch_ms = 0;
  if (!OracleAgrees(*env_.db, plan, answer, &no_sketch_ms)) ++mismatches_;
  speedup_.Add(plan, no_sketch_ms, client.last_plan_ms());
  if (client.tracer().enabled()) {
    ReplayWithSketch(env_.sys.get(), plan, answer, &client.tracer(), &replay_);
  }
  window_.Resume();
}

size_t EpisodeRunner::inserts() const {
  size_t n = 0;
  for (const auto& c : clients_) n += c->insert_ms().size();
  return n;
}

size_t EpisodeRunner::queries() const {
  size_t n = 0;
  for (const auto& c : clients_) n += c->query_ms().size();
  return n;
}

void EpisodeRunner::Finish(RunResult* out) {
  Report& report = out->report;
  const double active = window_.ActiveSeconds();
  alternator_.Finish(active);
  std::vector<const Client*> clients;
  size_t ops = 0, failed = 0;
  for (const auto& c : clients_) {
    clients.push_back(c.get());
    ops += c->ops();
    failed += c->failed();
  }
  const size_t mismatches = mismatches_ + replay_.mismatches;
  report.Note("episodes", std::to_string(totals_.episodes));
  report.Note("window_s", std::to_string(active));
  report.EndToEnd("setup_s", Median(setup_seconds_), "s",
                  setup_seconds_.size());
  ReportEndToEnd(clients, Median(episode_rates_), episode_rates_.size(),
                 oracle_checks_, mismatches, &report);
  speedup_.Report(&report);
  if (opt_.trace) {
    LayerInputs in;
    in.clients = clients;
    in.replay = &replay_;
    in.alternator = &alternator_;
    ReportLayers(totals_, in, &report);
    WriteClientSpans(opt_, clients);
  }
  out->attempted = ops + oracle_checks_ + replay_.replays;
  out->failed = failed;
  out->mismatches = mismatches;
}

}  // namespace perfbench
