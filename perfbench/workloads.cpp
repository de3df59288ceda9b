#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"
#include "dmpc/trace.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "oracle/oracles.hpp"
#include "serve/query_broker.hpp"

namespace perfbench {

// name, n, edges/vertex, weighted, batch, reads, read batches, batches/s,
// min batches, setups, validate untraced, overhead pairs.  Reads come as
// many small calls, each timed from the batch commit.
const UpdateWorkload kSparse1m{"sparse-1m", std::size_t{1} << 20, 0.4, false,
                               64, 16, 16, 14.0, 100, 9, false, 8};
const UpdateWorkload kGiantMst{"giant-mst", std::size_t{1} << 16, 2.0, true,
                               32, 16, 8, 7.0, 100, 25, true, 8};
// name, n, ops/s, setups, overhead pairs.  n = 2^14 as in bench_serving.
const ServeWorkload kServeClosed{"serve-closed", std::size_t{1} << 14, 200'000,
                                 51, 50};

namespace {

using dmpc::TracePhase;
using graph::VertexId;

constexpr std::size_t kPoolWorkers = 3;  ///< plus the calling thread
constexpr double kEps = 0.1;  ///< MST approximation slack
constexpr std::size_t kWindow = 256;     ///< closed loop: ops per pump
/// Closed loop: windows the client runs on one CPU before it moves to the
/// next.  On a shared host a core's neighbours can halve its speed for a
/// second or more; cycling over every CPU averages that out of a run.
constexpr std::size_t kWindowsPerCpu = 64;

double secs(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---------------------------------------------------------------------------
// Metric lists.  Every run prints the same names; a value a workload has
// no analogue for is 0 (per-layer only — see README.md).
// ---------------------------------------------------------------------------

struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double success_frac = 0;
  double updates_per_s = 0;
  double ops_per_s = 0;
  double batch_p50_ms = 0;
  double batch_p90_ms = 0;
  double rounds_per_update = 0;
  double words_per_update = 0;
  double query_p50_us = 0;
  double query_p90_us = 0;
  double query_rounds_per_batch = 0;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MiB"},
      {"success_frac", e.success_frac, "frac"},
      {"updates_per_s", e.updates_per_s, "1/s"},
      {"ops_per_s", e.ops_per_s, "1/s"},
      {"batch_p50_ms", e.batch_p50_ms, "ms"},
      {"batch_p90_ms", e.batch_p90_ms, "ms"},
      {"rounds_per_update", e.rounds_per_update, "rounds"},
      {"words_per_update", e.words_per_update, "words"},
      {"query_p50_us", e.query_p50_us, "us"},
      {"query_p90_us", e.query_p90_us, "us"},
      {"query_rounds_per_batch", e.query_rounds_per_batch, "rounds"},
  };
}

/// Model counters accumulated since the end of set-up.
struct Counters {
  dmpc::UpdateAggregate upd;
  dmpc::QueryAggregate qry;
  dmpc::BatchScheduleStats sched;
};

Counters counters_since(const core::DynamicForest& forest,
                        const dmpc::BatchScheduleStats& s0) {
  Counters c{forest.cluster().metrics().aggregate(),
             forest.cluster().metrics().query_aggregate(),
             forest.batch_stats()};
  dmpc::BatchScheduleStats& s = c.sched;
  s.batches -= s0.batches;
  s.stages -= s0.stages;
  s.kway_splits -= s0.kway_splits;
  s.kway_joins -= s0.kway_joins;
  s.cascade_rounds -= s0.cascade_rounds;
  s.cascade_links -= s0.cascade_links;
  s.path_max_grouped -= s0.path_max_grouped;
  s.deferred_updates -= s0.deferred_updates;
  s.serial_updates -= s0.serial_updates;
  s.elided_updates -= s0.elided_updates;
  return c;
}

/// What the traced run measured, frozen at the end of the measured
/// region (before the overhead segment and the correctness check).
struct Traced {
  std::array<dmpc::PhaseTotals, dmpc::kTracePhaseCount> phases{};
  std::uint64_t dropped_events = 0;
  TimingExecutor::Totals exec;
  std::size_t threads = 1;
  double overhead_frac = 0;

  void freeze(const dmpc::Tracer& tracer, const TimingExecutor& ex) {
    phases = tracer.phase_totals();
    dropped_events = tracer.dropped_events();
    exec = ex.totals();
    threads = ex.threads();
  }
  [[nodiscard]] double phase_ms(TracePhase p) const {
    return static_cast<double>(phases[static_cast<std::size_t>(p)].wall_ns) /
           1e6;
  }
  [[nodiscard]] double exec_ms(TracePhase p) const {
    return exec.wall_by_phase_s[static_cast<std::size_t>(p)] * 1e3;
  }
};

/// Workload-side inputs to the per-layer list.
struct LayerValues {
  bool serve = false;
  std::vector<double> apply_ms;  ///< update workloads' apply_batch spans
  double core_ms = 0;   ///< summed core spans (update workloads)
  double serve_ms = 0;  ///< summed serve spans (serve workloads)
  double preprocess_s = 0;
  double check_s = 0;
  double rss_after_setup_mb = 0;
  std::vector<double> submit_ns;
  std::vector<double> queue_wait_us;
  std::vector<double> updates_per_epoch;
  std::vector<double> pump_ms;
  double pump_busy_frac = 0;
  double queries_per_lookup = 0;
  double shed = 0;
  double rejected = 0;
};

constexpr std::array<TracePhase, 10> kReportedPhases = {
    TracePhase::kScatterClassify, TracePhase::kKWaySplit,
    TracePhase::kCascade,         TracePhase::kKWayJoin,
    TracePhase::kDirectory,       TracePhase::kPathMax,
    TracePhase::kWaveCommit,      TracePhase::kQueryBatch,
    TracePhase::kEpoch,           TracePhase::kNone,
};

std::vector<Metric> layer_metrics(LayerValues& v, const Counters& c,
                                  const Traced& t) {
  std::vector<Metric> out;
  const auto put = [&out](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };

  double traced_ms = 0;
  for (const dmpc::PhaseTotals& p : t.phases) {
    traced_ms += static_cast<double>(p.wall_ns) / 1e6;
  }
  for (const TracePhase p : kReportedPhases) {
    const dmpc::PhaseTotals& pt = t.phases[static_cast<std::size_t>(p)];
    const std::string base =
        std::string("phase.") + dmpc::trace_phase_name(p) + ".";
    put(base + "wall_ms", t.phase_ms(p), "ms");
    put(base + "rounds", static_cast<double>(pt.rounds + pt.charged_rounds),
        "rounds");
    put(base + "words", static_cast<double>(pt.comm_words), "words");
  }

  const dmpc::BatchScheduleStats& s = c.sched;
  put("core.apply_batch_ms_p50", percentile(v.apply_ms, 0.50), "ms");
  put("core.apply_batch_ms_p99", percentile(v.apply_ms, 0.99), "ms");
  put("core.stages_per_batch",
      ratio(static_cast<double>(s.stages), static_cast<double>(s.batches)),
      "stages");
  put("core.kway_splits", static_cast<double>(s.kway_splits), "count");
  put("core.kway_joins", static_cast<double>(s.kway_joins), "count");
  put("core.cascade_rounds", static_cast<double>(s.cascade_rounds), "rounds");
  put("core.cascade_links", static_cast<double>(s.cascade_links), "count");
  put("core.path_max_grouped", static_cast<double>(s.path_max_grouped),
      "count");
  put("core.deferred_updates", static_cast<double>(s.deferred_updates),
      "count");
  put("core.serial_updates", static_cast<double>(s.serial_updates), "count");
  put("core.elided_updates", static_cast<double>(s.elided_updates), "count");
  put("core.preprocess_s", v.preprocess_s, "s");
  put("core.check_s", v.check_s, "s");
  put("mem.rss_after_setup_mb", v.rss_after_setup_mb, "MiB");

  put("dmpc.rounds",
      static_cast<double>(c.upd.total_rounds + c.qry.total_rounds), "rounds");
  put("dmpc.comm_words",
      static_cast<double>(c.upd.total_comm_words + c.qry.total_comm_words),
      "words");
  put("dmpc.worst_round_words", static_cast<double>(c.upd.worst_comm_words),
      "words");
  put("dmpc.worst_active_machines",
      static_cast<double>(
          std::max(c.upd.worst_active_machines, c.qry.worst_active_machines)),
      "machines");
  put("dmpc.query_words_per_query",
      ratio(static_cast<double>(c.qry.total_comm_words),
            static_cast<double>(c.qry.queries)),
      "words");
  const TimingExecutor::Totals& ex = t.exec;
  put("dmpc.exec.dispatches", static_cast<double>(ex.dispatches), "count");
  put("dmpc.exec.tasks_per_dispatch",
      ratio(static_cast<double>(ex.tasks), static_cast<double>(ex.dispatches)),
      "tasks");
  put("dmpc.exec.busy_s", ex.busy_s, "s");
  put("dmpc.exec.utilization",
      ratio(ex.busy_s, ex.wall_s * static_cast<double>(t.threads)), "frac");
  put("dmpc.exec.skew", ratio(ex.max_task_s, ex.mean_task_s), "ratio");

  put("serve.submit_ns_p50", percentile(v.submit_ns, 0.50), "ns");
  put("serve.submit_ns_p99", percentile(v.submit_ns, 0.99), "ns");
  put("serve.queue_wait_us_p50", percentile(v.queue_wait_us, 0.50), "us");
  put("serve.queue_wait_us_p99", percentile(v.queue_wait_us, 0.99), "us");
  put("serve.updates_per_epoch_mean",
      ratio(sum(v.updates_per_epoch),
            static_cast<double>(v.updates_per_epoch.size())),
      "updates");
  put("serve.updates_per_epoch_max", percentile(v.updates_per_epoch, 1.0),
      "updates");
  put("serve.pump_ms_p50", percentile(v.pump_ms, 0.50), "ms");
  put("serve.pump_busy_frac", v.pump_busy_frac, "frac");
  put("serve.queries_per_lookup", v.queries_per_lookup, "queries");
  put("serve.shed", v.shed, "count");
  put("serve.rejected", v.rejected, "count");

  put("trace.overhead_frac", t.overhead_frac, "frac");
  put("trace.unattributed_frac",
      ratio(t.phase_ms(TracePhase::kNone), traced_ms), "frac");
  put("trace.dropped_events", static_cast<double>(t.dropped_events), "count");

  // Self time per layer, nesting serve > core > etour > dmpc.  Core time
  // inside the broker is what the tracer attributed to any named phase;
  // executor dispatches are charged to the phase open when they ran.
  const double etour_ms =
      t.phase_ms(TracePhase::kKWaySplit) + t.phase_ms(TracePhase::kKWayJoin);
  const double dmpc_ms = ex.wall_s * 1e3;
  const double dmpc_in_etour =
      t.exec_ms(TracePhase::kKWaySplit) + t.exec_ms(TracePhase::kKWayJoin);
  const double core_ms =
      v.serve ? traced_ms - t.phase_ms(TracePhase::kNone) : v.core_ms;
  put("self.serve_ms", v.serve ? v.serve_ms - core_ms : 0.0, "ms");
  put("self.core_ms", core_ms - etour_ms - (dmpc_ms - dmpc_in_etour), "ms");
  put("self.etour_ms", etour_ms - dmpc_in_etour, "ms");
  put("self.dmpc_ms", dmpc_ms, "ms");
  return out;
}

/// Forest construction plus preprocess, `setups` times; keeps the last.
/// With `move_cpu`, set-up k runs pinned to CPU k (wrapping), as the
/// serial serve loop does.
template <typename Edges>
std::unique_ptr<core::DynamicForest> set_up(
    const core::DynForestConfig& fc, const Edges& edges, std::size_t setups,
    const std::shared_ptr<dmpc::RoundExecutor>& exec,
    std::vector<double>& setup_s, std::vector<double>& preprocess_s,
    bool move_cpu = false) {
  std::unique_ptr<core::DynamicForest> forest;
  for (std::size_t k = 0; k < setups; ++k) {
    std::optional<CpuPin> pin;
    if (move_cpu) pin.emplace(k);
    forest.reset();
    const std::uint64_t t0 = now_ns();
    forest = std::make_unique<core::DynamicForest>(fc);
    if (exec) forest->cluster().set_executor(exec);
    const std::uint64_t t1 = now_ns();
    forest->preprocess(edges);
    const std::uint64_t t2 = now_ns();
    setup_s.push_back(secs(t0, t2));
    preprocess_s.push_back(secs(t1, t2));
  }
  forest->cluster().metrics().reset();
  return forest;
}

// ---------------------------------------------------------------------------
// Update workloads.
// ---------------------------------------------------------------------------

struct UpdateInputs {
  graph::WeightedEdgeList initial;
  std::vector<std::vector<graph::Update>> batches;
  /// read_batches consecutive entries per update batch
  std::vector<std::vector<core::ReadQuery>> reads;
  std::size_t max_edges = 0;
  std::uint64_t hash = 0;
};

/// G(n, m) plus random insert/delete churn that keeps m about level: each
/// update deletes a present edge or inserts an absent pair with equal odds.
UpdateInputs make_update_inputs(const UpdateWorkload& w, std::uint64_t seed,
                                std::size_t num_batches) {
  UpdateInputs in;
  std::mt19937_64 rng(seed);
  const auto m = static_cast<std::size_t>(
      std::llround(w.edges_per_vertex * static_cast<double>(w.n)));
  std::uniform_int_distribution<graph::Weight> weight(1, 1000);
  std::uniform_int_distribution<VertexId> vertex(
      0, static_cast<VertexId>(w.n) - 1);
  std::vector<graph::EdgeKey> present;
  std::unordered_map<graph::EdgeKey, std::size_t, graph::EdgeKeyHash> slot;
  present.reserve(m + num_batches * w.batch);
  slot.reserve(m + num_batches * w.batch);
  for (const auto& [u, v] : graph::gnm(w.n, m, rng())) {
    in.initial.push_back({u, v, w.weighted ? weight(rng) : 1});
    slot.emplace(graph::EdgeKey(u, v), present.size());
    present.emplace_back(u, v);
  }
  in.max_edges = present.size();
  InputHash h;
  for (const graph::WeightedEdge& e : in.initial) {
    h.add(static_cast<std::uint64_t>(e.u));
    h.add(static_cast<std::uint64_t>(e.v));
    h.add(static_cast<std::uint64_t>(e.w));
  }
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<graph::Update>& batch = in.batches.emplace_back();
    while (batch.size() < w.batch) {
      if (!present.empty() && (rng() & 1U) != 0) {
        const std::size_t i = rng() % present.size();
        const graph::EdgeKey k = present[i];
        slot.erase(k);
        present[i] = present.back();
        present.pop_back();
        if (i < present.size()) slot[present[i]] = i;
        batch.push_back({graph::UpdateKind::kDelete, k.u, k.v, 1});
        continue;
      }
      const graph::EdgeKey k(vertex(rng), vertex(rng));
      if (k.u == k.v || slot.contains(k)) continue;
      slot.emplace(k, present.size());
      present.push_back(k);
      batch.push_back({graph::UpdateKind::kInsert, k.u, k.v,
                       w.weighted ? weight(rng) : 1});
      in.max_edges = std::max(in.max_edges, present.size());
    }
    for (const graph::Update& up : batch) {
      h.add(static_cast<std::uint64_t>(up.kind));
      h.add(static_cast<std::uint64_t>(up.u));
      h.add(static_cast<std::uint64_t>(up.v));
      h.add(static_cast<std::uint64_t>(up.w));
    }
    for (std::size_t r = 0; r < w.read_batches; ++r) {
      std::vector<core::ReadQuery>& reads = in.reads.emplace_back();
      for (std::size_t i = 0; i < w.reads; ++i) {
        const bool path = w.weighted && i % 2 == 1;
        reads.push_back({path ? core::QueryKind::kPathWeight
                              : core::QueryKind::kConnected,
                         vertex(rng), vertex(rng)});
        h.add(static_cast<std::uint64_t>(reads.back().kind));
        h.add(static_cast<std::uint64_t>(reads.back().u));
        h.add(static_cast<std::uint64_t>(reads.back().v));
      }
    }
  }
  in.hash = h.h;
  return in;
}

}  // namespace

Result run_update(const UpdateWorkload& w, const RunConfig& cfg) {
  Result r;
  const std::size_t measured = std::max(
      w.min_batches,
      static_cast<std::size_t>(std::llround(w.batches_per_s * cfg.seconds)));
  const std::size_t extra = 2 * w.overhead_pairs;
  const UpdateInputs in = make_update_inputs(w, cfg.seed, measured + extra);
  r.input_hash = in.hash;

  auto pool = std::make_shared<dmpc::ThreadPoolExecutor>(kPoolWorkers);
  const core::DynForestConfig fc{.n = w.n,
                                 .m_cap = in.max_edges,
                                 .weighted = w.weighted,
                                 .eps = kEps};
  std::vector<double> setup_s;
  std::vector<double> preprocess_s;
  std::unique_ptr<core::DynamicForest> forest;
  if (w.weighted) {
    forest = set_up(fc, in.initial, w.setups, pool, setup_s, preprocess_s);
  } else {
    graph::EdgeList edges;
    edges.reserve(in.initial.size());
    for (const graph::WeightedEdge& e : in.initial) edges.emplace_back(e.u, e.v);
    forest = set_up(fc, edges, w.setups, pool, setup_s, preprocess_s);
  }
  const double rss_after_setup = current_rss_mb();
  const dmpc::BatchScheduleStats sched0 = forest->batch_stats();

  std::shared_ptr<dmpc::Tracer> tracer;
  std::shared_ptr<TimingExecutor> exec;
  if (cfg.trace) {
    tracer = std::make_shared<dmpc::Tracer>();
    forest->cluster().set_tracer(tracer);
    tracer->set_enabled(true);
  }
  if (cfg.trace || cfg.delay_ns > 0) {
    exec = std::make_shared<TimingExecutor>(pool, kPoolWorkers + 1,
                                            tracer.get(), cfg.delay_ns);
    exec->set_timing(cfg.trace);
    forest->cluster().set_executor(exec);
  }

  // ---- measured region: apply_batch and answer_queries calls only ----
  SpanLog spans(cfg.trace);
  std::vector<double> apply_ms;
  std::vector<double> read_us;
  std::vector<core::ReadAnswer> answers;
  std::size_t last_read = 0;
  /// One update batch, then its read batches; returns their walls (s).
  const auto step = [&](std::size_t b) {
    const std::uint64_t t0 = now_ns();
    forest->apply_batch(std::span<const graph::Update>(in.batches[b]));
    const std::uint64_t t1 = now_ns();
    spans.add("core", "apply_batch", b, t0, t1);
    std::vector<double> reads{secs(t0, t1)};
    for (std::size_t r = b * w.read_batches; r < (b + 1) * w.read_batches;
         ++r) {
      const std::uint64_t r0 = now_ns();
      answers = forest->answer_queries(
          std::span<const core::ReadQuery>(in.reads[r]));
      const std::uint64_t r1 = now_ns();
      spans.add("core", "answer_queries", b, r0, r1);
      reads.push_back(secs(r0, r1));
      last_read = r;
    }
    return reads;
  };
  std::uint64_t updates = 0;
  std::uint64_t queries = 0;
  double read_s = 0;
  for (std::size_t b = 0; b < measured; ++b) {
    const std::vector<double> walls = step(b);
    apply_ms.push_back(walls[0] * 1e3);
    // A batch's reads are all due when it commits; each read call's
    // queries are answered when the call returns.
    double since_commit = 0;
    for (std::size_t r = 1; r < walls.size(); ++r) {
      since_commit += walls[r];
      read_us.push_back(since_commit * 1e6);
    }
    read_s += since_commit;
    updates += in.batches[b].size();
    queries += w.reads * w.read_batches;
  }
  const double apply_s = sum(apply_ms) / 1e3;
  const Counters c = counters_since(*forest, sched0);
  const double peak_rss = peak_rss_mb();
  r.attempted = updates + queries;
  r.timed_wall_s = apply_s + read_s;
  if (exec) r.dispatches = exec->totals().dispatches;

  Traced traced;
  std::size_t applied = measured;
  if (cfg.trace) {
    traced.freeze(*tracer, *exec);
    // Tracing overhead: further batches with instrumentation alternately
    // on and off (ABAB), compared by summed wall.
    double on = 0;
    double off = 0;
    for (std::size_t j = 0; j < w.overhead_pairs; ++j) {
      for (std::size_t k = 0; k < 2; ++k) {
        const bool traced_now = k == j % 2;
        tracer->set_enabled(traced_now);
        exec->set_timing(traced_now);
        const std::vector<double> walls = step(applied++);
        (traced_now ? on : off) += sum(walls);
      }
    }
    tracer->set_enabled(false);
    exec->set_timing(false);
    traced.overhead_frac = ratio(on, off) - (off > 0 ? 1.0 : 0.0);
  }

  // ---- correctness gate, outside the timed region ----
  const std::uint64_t check0 = now_ns();
  graph::WeightedDynamicGraph shadow(w.n);
  for (const graph::WeightedEdge& e : in.initial) {
    shadow.insert_edge(e.u, e.v, e.w);
  }
  for (std::size_t b = 0; b < applied; ++b) {
    for (const graph::Update& up : in.batches[b]) {
      const bool ok = up.kind == graph::UpdateKind::kInsert
                          ? shadow.insert_edge(up.u, up.v, up.w)
                          : shadow.delete_edge(up.u, up.v);
      if (!ok) throw std::logic_error("generated update is not valid");
    }
  }
  const std::vector<VertexId> comp =
      oracle::connected_components(shadow.unweighted());
  if (!oracle::same_partition(forest->component_snapshot(), comp)) {
    r.fail("component partition differs from the oracle", updates);
  }
  std::uint64_t wrong = 0;
  const std::vector<core::ReadQuery>& last = in.reads[last_read];
  for (std::size_t i = 0; i < last.size(); ++i) {
    const bool expect = comp[static_cast<std::size_t>(last[i].u)] ==
                        comp[static_cast<std::size_t>(last[i].v)];
    if (answers[i].connected != expect) ++wrong;
  }
  if (wrong > 0) r.fail("read answers differ from the oracle", wrong);
  if (w.weighted) {
    const auto msf = static_cast<double>(oracle::msf_weight(shadow));
    const auto fw = static_cast<double>(forest->forest_weight());
    if (fw < msf || fw > (1.0 + kEps) * msf) {
      r.fail("forest weight outside [msf, (1+eps) msf]", updates);
    }
  }
  if (w.validate_untraced || cfg.trace) {
    std::string why;
    if (!forest->validate(&why)) r.fail("validate(): " + why, updates);
  }
  const double check_s = secs(check0, now_ns());

  EndToEnd e;
  e.setup_s = median(setup_s);
  e.peak_rss_mb = peak_rss;
  e.success_frac =
      1.0 - ratio(static_cast<double>(r.failed),
                  static_cast<double>(r.attempted));
  e.updates_per_s = ratio(static_cast<double>(updates), apply_s);
  e.ops_per_s = ratio(static_cast<double>(updates + queries), apply_s + read_s);
  e.rounds_per_update = ratio(static_cast<double>(c.upd.total_rounds),
                              static_cast<double>(updates));
  e.words_per_update = ratio(static_cast<double>(c.upd.total_comm_words),
                             static_cast<double>(updates));
  e.query_rounds_per_batch = c.qry.mean_rounds_per_batch();
  e.batch_p50_ms = percentile(apply_ms, 0.50);
  e.batch_p90_ms = percentile(apply_ms, 0.90);
  e.query_p50_us = percentile(read_us, 0.50);
  e.query_p90_us = percentile(read_us, 0.90);
  if (!cfg.trace) {
    r.end_to_end = end_to_end_metrics(e);
    return r;
  }

  LayerValues v;
  v.apply_ms = std::move(apply_ms);
  v.core_ms = (apply_s + read_s) * 1e3;
  v.preprocess_s = median(preprocess_s);
  v.check_s = check_s;
  v.rss_after_setup_mb = rss_after_setup;
  r.per_layer = layer_metrics(v, c, traced);
  if (!cfg.spans_path.empty()) spans.write_json(cfg.spans_path);
  return r;
}

// ---------------------------------------------------------------------------
// Serve workloads.
// ---------------------------------------------------------------------------

namespace {

struct ServeInputs {
  graph::EdgeList build;           ///< the preprocessed build phase
  std::vector<graph::MixedOp> ops; ///< the served traffic
  std::uint64_t hash = 0;
};

ServeInputs make_serve_inputs(const ServeWorkload& w, std::uint64_t seed,
                              std::size_t num_ops) {
  graph::ZipfianServingConfig t;
  t.n = w.n;
  t.blocks = 64;
  t.zipf_s = 1.1;
  t.query_fraction = 0.95;
  t.path_query_fraction = 0.03;
  t.seed = seed;
  // The build phase wires each block into one path: n - blocks inserts.
  const std::size_t build = w.n - t.blocks;
  t.length = build + num_ops;
  const graph::MixedStream stream = graph::zipfian_serving_stream(t);
  ServeInputs in;
  InputHash h;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const graph::MixedOp& op = stream[i];
    h.add(static_cast<std::uint64_t>(op.kind));
    h.add(static_cast<std::uint64_t>(op.update));
    h.add(static_cast<std::uint64_t>(op.u));
    h.add(static_cast<std::uint64_t>(op.v));
    if (i < build) {
      in.build.emplace_back(op.u, op.v);
    } else {
      in.ops.push_back(op);
    }
  }
  in.hash = h.h;
  return in;
}

/// What one serving run observed, client side and pump side.
struct ServeLog {
  struct Pending {
    serve::QueryId id;
    std::uint64_t submit_ns;
    VertexId u;
    VertexId v;
    bool sample;
  };
  struct Sample {
    std::size_t epoch;
    VertexId u;
    VertexId v;
    bool connected;
  };
  bool traced = false;
  std::vector<Pending> pending;
  std::vector<double> latency_us;  ///< submit -> answer deposit
  std::vector<double> submit_ns;   ///< traced only
  /// traced only: (submit, answer deposit) per answered query
  std::vector<std::pair<std::uint64_t, std::uint64_t>> waits;
  std::vector<graph::Update> accepted;  ///< admitted updates, in order
  std::vector<Sample> samples;
  std::uint64_t queries = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;

  /// Sized up front: regrowing a large sample vector inside the loop
  /// would stall the client for milliseconds.
  void reserve(std::size_t ops) {
    pending.reserve(kWindow);
    latency_us.reserve(ops);
    if (traced) {
      submit_ns.reserve(ops);
      waits.reserve(ops);
    }
    accepted.reserve(ops / 8);
    samples.reserve(ops / 16 + 1);
  }

  void submit(serve::QueryBroker& broker, const graph::MixedOp& op) {
    const std::uint64_t t0 = now_ns();
    if (op.kind == graph::MixedKind::kUpdate) {
      if (broker.submit_update(op.as_update())) {
        accepted.push_back(op.as_update());
      } else {
        ++rejected;
      }
    } else {
      const core::ReadQuery q{op.kind == graph::MixedKind::kConnected
                                  ? core::QueryKind::kConnected
                                  : core::QueryKind::kPathWeight,
                              op.u, op.v};
      if (const auto id = broker.submit_query(q)) {
        pending.push_back({*id, t0, op.u, op.v, queries % 16 == 0});
      } else {
        ++shed;
      }
      ++queries;
    }
    if (traced) submit_ns.push_back(static_cast<double>(now_ns() - t0));
  }

  /// Collects every answer ready now; the rest stay pending.
  void poll(serve::QueryBroker& broker) {
    std::size_t keep = 0;
    for (const Pending& p : pending) {
      const auto a = broker.try_answer(p.id);
      if (!a) {
        pending[keep++] = p;
        continue;
      }
      latency_us.push_back(a->latency_us);
      if (traced) {
        waits.emplace_back(p.submit_ns,
                           p.submit_ns + static_cast<std::uint64_t>(
                                             a->latency_us * 1e3));
      }
      if (p.sample) samples.push_back({a->epoch, p.u, p.v, a->answer.connected});
    }
    pending.resize(keep);
  }
};

/// Pump-side record: pump walls and start times, and the number of
/// updates committed by each epoch (index 0 = before the first batch).
struct PumpLog {
  std::vector<double> pump_ms;
  std::vector<std::uint64_t> pump_begin_ns;
  std::vector<std::uint64_t> epoch_updates{0};

  void reserve(std::size_t pumps) {
    pump_ms.reserve(pumps);
    pump_begin_ns.reserve(pumps);
    epoch_updates.reserve(pumps + 1);
  }

  /// Pumps once; returns the pump's wall (s).
  double pump(serve::QueryBroker& broker, SpanLog& spans) {
    const std::uint64_t t0 = now_ns();
    broker.pump();
    const std::uint64_t t1 = now_ns();
    const serve::ServingStats s = broker.stats();
    pump_ms.push_back(secs(t0, t1) * 1e3);
    pump_begin_ns.push_back(t0);
    if (s.update_batches >= epoch_updates.size()) {
      epoch_updates.push_back(s.updates_applied);
    }
    spans.add("serve", "pump", s.update_batches, t0, t1);
    return secs(t0, t1);
  }
};

/// Closed loop over ops [lo, hi): the client submits a window, pumps, then
/// polls every answer.  Returns the summed pump wall.
double run_closed(serve::QueryBroker& broker,
                  const std::vector<graph::MixedOp>& ops, std::size_t lo,
                  std::size_t hi, ServeLog& log, PumpLog& pumps,
                  SpanLog& spans) {
  double pump_s = 0;
  for (std::size_t w0 = lo; w0 < hi; w0 += kWindow) {
    for (std::size_t i = w0; i < std::min(hi, w0 + kWindow); ++i) {
      log.submit(broker, ops[i]);
    }
    pump_s += pumps.pump(broker, spans);
    log.poll(broker);
  }
  return pump_s;
}

}  // namespace

Result run_serve(const ServeWorkload& w, const RunConfig& cfg) {
  Result r;
  const auto main_ops =
      static_cast<std::size_t>(std::llround(w.rate * cfg.seconds));
  const std::size_t extra = 2 * w.overhead_pairs * kWindow;
  const ServeInputs in = make_serve_inputs(w, cfg.seed, main_ops + extra);
  r.input_hash = in.hash;

  // Path edges plus the few live chords.
  const core::DynForestConfig fc{.n = w.n, .m_cap = 2 * w.n};
  std::vector<double> setup_s;
  std::vector<double> preprocess_s;
  auto serial = std::make_shared<dmpc::SerialExecutor>();
  std::unique_ptr<core::DynamicForest> forest =
      set_up(fc, in.build, w.setups, serial, setup_s, preprocess_s, true);
  const double rss_after_setup = current_rss_mb();
  const dmpc::BatchScheduleStats sched0 = forest->batch_stats();

  std::shared_ptr<dmpc::Tracer> tracer;
  std::shared_ptr<TimingExecutor> exec;
  if (cfg.trace) {
    tracer = std::make_shared<dmpc::Tracer>();
    forest->cluster().set_tracer(tracer);
    tracer->set_enabled(true);
  }
  if (cfg.trace || cfg.delay_ns > 0) {
    exec = std::make_shared<TimingExecutor>(serial, 1, tracer.get(),
                                            cfg.delay_ns);
    exec->set_timing(cfg.trace);
    forest->cluster().set_executor(exec);
  }
  serve::QueryBroker broker(*forest, {.max_query_batch = 256,
                                      .max_pending_queries = 1 << 16,
                                      .max_pending_updates = 1 << 14});

  // ---- measured region ----
  SpanLog spans(cfg.trace);
  ServeLog log;
  log.traced = cfg.trace;
  log.reserve(main_ops);
  PumpLog pumps;
  pumps.reserve(main_ops / kWindow + 1);
  const std::uint64_t t0 = now_ns();
  double pump_s = 0;
  const std::size_t per_cpu = kWindowsPerCpu * kWindow;
  for (std::size_t lo = 0, k = 0; lo < main_ops; lo += per_cpu, ++k) {
    const CpuPin pin(k);
    pump_s += run_closed(broker, in.ops, lo, std::min(main_ops, lo + per_cpu),
                         log, pumps, spans);
  }
  const double loop_s = secs(t0, now_ns());
  const CpuPin pin(0);  // the tracing-overhead windows stay on one CPU
  const Counters c = counters_since(*forest, sched0);
  const serve::ServingStats stats = broker.stats();
  const double peak_rss = peak_rss_mb();
  r.attempted = main_ops;
  r.timed_wall_s = loop_s;
  if (exec) r.dispatches = exec->totals().dispatches;

  Traced traced;
  if (cfg.trace) {
    traced.freeze(*tracer, *exec);
    // Tracing overhead: closed-loop windows with instrumentation
    // alternately on and off (ABAB), compared by summed pump wall.
    ServeLog scratch;
    PumpLog scratch_pumps;
    SpanLog no_spans(false);
    double on = 0;
    double off = 0;
    std::size_t lo = main_ops;
    for (std::size_t j = 0; j < w.overhead_pairs; ++j) {
      for (std::size_t k = 0; k < 2; ++k) {
        const bool traced_now = k == j % 2;
        tracer->set_enabled(traced_now);
        exec->set_timing(traced_now);
        (traced_now ? on : off) +=
            run_closed(broker, in.ops, lo, lo + kWindow, scratch,
                       scratch_pumps, no_spans);
        lo += kWindow;
      }
    }
    tracer->set_enabled(false);
    exec->set_timing(false);
    traced.overhead_frac = ratio(on, off) - (off > 0 ? 1.0 : 0.0);
  }

  // ---- correctness gate: every admitted query answered, sampled answers
  // equal the oracle replayed to the answer's epoch ----
  const std::uint64_t check0 = now_ns();
  if (log.shed > 0) r.fail("queries shed", log.shed);
  if (log.rejected > 0) r.fail("updates rejected", log.rejected);
  if (!log.pending.empty()) {
    r.fail("admitted queries left unanswered", log.pending.size());
  }
  std::sort(log.samples.begin(), log.samples.end(),
            [](const ServeLog::Sample& a, const ServeLog::Sample& b) {
              return a.epoch < b.epoch;
            });
  std::vector<std::size_t> epochs;
  for (const ServeLog::Sample& s : log.samples) {
    if (epochs.empty() || epochs.back() != s.epoch) epochs.push_back(s.epoch);
  }
  // Replaying the oracle is O(n + m) per epoch: check at most ~200 epochs.
  const std::size_t stride = std::max<std::size_t>(1, epochs.size() / 200);
  graph::DynamicGraph shadow(w.n);
  for (const auto& [u, v] : in.build) shadow.insert_edge(u, v);
  std::size_t replayed = 0;
  std::uint64_t wrong = 0;
  std::size_t s = 0;
  for (std::size_t k = 0; k < epochs.size(); k += stride) {
    const std::size_t epoch = epochs[k];
    if (epoch >= pumps.epoch_updates.size()) {
      r.fail("answer stamped with an unknown epoch", 1);
      break;
    }
    const std::uint64_t target = pumps.epoch_updates[epoch];
    while (replayed < target && replayed < log.accepted.size()) {
      graph::apply_update(shadow, log.accepted[replayed++]);
    }
    const std::vector<VertexId> comp = oracle::connected_components(shadow);
    while (s < log.samples.size() && log.samples[s].epoch < epoch) ++s;
    for (; s < log.samples.size() && log.samples[s].epoch == epoch; ++s) {
      const ServeLog::Sample& q = log.samples[s];
      const bool expect = comp[static_cast<std::size_t>(q.u)] ==
                          comp[static_cast<std::size_t>(q.v)];
      if (q.connected != expect) ++wrong;
    }
  }
  if (wrong > 0) r.fail("sampled answers differ from the oracle", wrong);
  const double check_s = secs(check0, now_ns());

  const auto applied = static_cast<double>(stats.updates_applied);
  EndToEnd e;
  e.setup_s = median(setup_s);
  e.peak_rss_mb = peak_rss;
  e.success_frac =
      1.0 - ratio(static_cast<double>(r.failed),
                  static_cast<double>(r.attempted));
  e.updates_per_s = ratio(applied, loop_s);
  e.ops_per_s =
      ratio(static_cast<double>(stats.queries_answered) + applied, loop_s);
  e.rounds_per_update =
      ratio(static_cast<double>(c.upd.total_rounds), applied);
  e.words_per_update =
      ratio(static_cast<double>(c.upd.total_comm_words), applied);
  e.query_rounds_per_batch = c.qry.mean_rounds_per_batch();
  e.batch_p50_ms = percentile(pumps.pump_ms, 0.50);
  e.batch_p90_ms = percentile(pumps.pump_ms, 0.90);
  e.query_p50_us = percentile(log.latency_us, 0.50);
  e.query_p90_us = percentile(log.latency_us, 0.90);
  if (!cfg.trace) {
    r.end_to_end = end_to_end_metrics(e);
    return r;
  }

  LayerValues v;
  v.serve = true;
  v.preprocess_s = median(preprocess_s);
  v.check_s = check_s;
  v.rss_after_setup_mb = rss_after_setup;
  v.submit_ns = log.submit_ns;
  v.serve_ms = pump_s * 1e3 + sum(log.submit_ns) / 1e6;
  for (const auto& [submit, deposit] : log.waits) {
    // The answering pump is the last one that began before the deposit.
    const auto it = std::upper_bound(pumps.pump_begin_ns.begin(),
                                     pumps.pump_begin_ns.end(), deposit);
    if (it == pumps.pump_begin_ns.begin()) continue;
    const std::uint64_t begin = *std::prev(it);
    v.queue_wait_us.push_back(
        begin > submit ? static_cast<double>(begin - submit) / 1e3 : 0.0);
  }
  for (std::size_t k = 1; k < pumps.epoch_updates.size(); ++k) {
    v.updates_per_epoch.push_back(static_cast<double>(
        pumps.epoch_updates[k] - pumps.epoch_updates[k - 1]));
  }
  v.pump_ms = pumps.pump_ms;
  v.pump_busy_frac = ratio(pump_s, loop_s);
  v.queries_per_lookup = ratio(static_cast<double>(stats.queries_answered),
                               static_cast<double>(stats.query_batches));
  v.shed = static_cast<double>(log.shed);
  v.rejected = static_cast<double>(log.rejected);
  r.per_layer = layer_metrics(v, c, traced);
  if (!cfg.spans_path.empty()) spans.write_json(cfg.spans_path);
  return r;
}

Result run_named(const std::string& name, const RunConfig& cfg) {
  for (const UpdateWorkload* w : {&kSparse1m, &kGiantMst}) {
    if (name == w->name) return run_update(*w, cfg);
  }
  if (name == kServeClosed.name) return run_serve(kServeClosed, cfg);
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::string> workload_names() {
  return {kSparse1m.name, kGiantMst.name, kServeClosed.name};
}

}  // namespace perfbench
