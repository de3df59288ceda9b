// The benchmark's own tests, on scaled-down copies of its workloads (same
// code paths, a fraction of the size):
//   * determinism — one seed gives identical inputs and identical model
//     counters run after run, for the development seed and a held-out one;
//   * sensitivity — a fixed busy-wait injected into every executor
//     dispatch through the benchmark's executor wrapper moves each
//     workload's timed wall by about dispatches x delay, so the executor
//     layer's cost is visible end to end.
// Build and run: see README.md.  Exit code 0 when every check passes.
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// Development seed and the held-out seed (never used while tuning).
constexpr std::uint64_t kSeeds[] = {1, 90'210};

perfbench::UpdateWorkload small(perfbench::UpdateWorkload w, std::size_t n) {
  w.n = n;
  w.batches_per_s = 0;
  w.min_batches = 12;
  w.setups = 1;
  w.overhead_pairs = 2;
  return w;
}

perfbench::ServeWorkload small(perfbench::ServeWorkload w) {
  w.n = std::size_t{1} << 12;
  w.rate = 40'000;
  w.setups = 1;
  w.overhead_pairs = 4;
  return w;
}

const perfbench::UpdateWorkload kUpdates[] = {
    small(perfbench::kSparse1m, std::size_t{1} << 14),
    small(perfbench::kGiantMst, std::size_t{1} << 12),
};
const perfbench::ServeWorkload kServe = small(perfbench::kServeClosed);

template <typename Workload>
Result run(const Workload& w, std::uint64_t seed, bool trace,
           std::uint64_t delay_ns = 0) {
  RunConfig cfg;
  cfg.seed = seed;
  cfg.seconds = 1;
  cfg.trace = trace;
  cfg.delay_ns = delay_ns;
  Result r;
  if constexpr (std::is_same_v<Workload, perfbench::UpdateWorkload>) {
    r = perfbench::run_update(w, cfg);
  } else {
    r = perfbench::run_serve(w, cfg);
  }
  expect(r.correct, std::string(w.name) + ": correctness gate: " + r.why);
  return r;
}

/// Runs `w` twice per seed in both modes and compares what must repeat.
template <typename Workload>
void check_determinism(const Workload& w) {
  std::uint64_t first_hash = 0;
  for (const std::uint64_t seed : kSeeds) {
    const std::string tag = std::string(w.name) + " seed " +
                            std::to_string(seed);
    std::vector<Result> runs;
    for (int rep = 0; rep < 2; ++rep) {
      runs.push_back(run(w, seed, true));
      runs.push_back(run(w, seed, false));
    }
    expect(runs[0].input_hash == runs[2].input_hash,
           tag + ": inputs differ between runs");
    if (first_hash != 0) {
      expect(runs[0].input_hash != first_hash,
             tag + ": inputs equal those of another seed");
    }
    first_hash = runs[0].input_hash;
    for (const char* name :
         {"dmpc.rounds", "dmpc.comm_words", "core.stages_per_batch",
          "core.kway_splits", "core.kway_joins", "core.cascade_rounds"}) {
      expect(runs[0].value(name) == runs[2].value(name),
             tag + ": " + name + " differs between runs");
    }
    for (const char* name : {"rounds_per_update", "words_per_update",
                             "query_rounds_per_batch"}) {
      expect(runs[1].value(name) == runs[3].value(name),
             tag + ": " + name + " differs between runs");
    }
    std::printf("%-13s seed %-6llu dmpc.rounds %.0f  comm_words %.0f  "
                "stages/batch %.4g  query_rounds/batch %.4g\n",
                w.name, static_cast<unsigned long long>(seed),
                runs[0].value("dmpc.rounds"), runs[0].value("dmpc.comm_words"),
                runs[0].value("core.stages_per_batch"),
                runs[1].value("query_rounds_per_batch"));
  }
}

/// Injects `delay_ns` per dispatch and compares the timed wall's growth
/// with dispatches x delay.
template <typename Workload>
void check_sensitivity(const Workload& w, std::uint64_t delay_ns) {
  const Result base = run(w, 1, false);
  const Result slow = run(w, 1, false, delay_ns);
  const double expected =
      static_cast<double>(slow.dispatches) * static_cast<double>(delay_ns) /
      1e9;
  const double moved = slow.timed_wall_s - base.timed_wall_s;
  std::printf("%-13s delay %6.0f us x %6llu dispatches = %.3f s; timed wall "
              "moved %.3f s (%.2fx)\n",
              w.name, static_cast<double>(delay_ns) / 1e3,
              static_cast<unsigned long long>(slow.dispatches), expected,
              moved, moved / expected);
  expect(slow.dispatches > 0, std::string(w.name) + ": no dispatches seen");
  expect(moved > 0.75 * expected && moved < 1.5 * expected,
         std::string(w.name) + ": timed wall did not move by dispatches x "
                               "delay");
}

}  // namespace

int main() {
  for (const auto& w : kUpdates) check_determinism(w);
  check_determinism(kServe);

  for (const auto& w : kUpdates) check_sensitivity(w, 1'000'000);
  check_sensitivity(kServe, 200'000);

  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
