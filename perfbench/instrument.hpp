// Benchmark-side instrumentation: the timing RoundExecutor wrapper, the
// span log, percentiles, memory probes, and the metric record the
// workloads fill in.  Nothing here is linked into the library; every
// measurement is taken around calls into its public API.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dmpc/executor.hpp"
#include "dmpc/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty sample.
/// Sorts `v` in place.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();
/// Current resident set size, MiB.
double current_rss_mb();

/// Pins the calling thread to one CPU of its allowed set (counted from
/// the end, wrapping) while alive, then restores the original set.  The
/// single-threaded serve loop moves itself from CPU to CPU on a fixed
/// schedule with this, rather than leaving placement to the scheduler.
class CpuPin {
 public:
  explicit CpuPin(std::size_t from_end);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Forwards every dispatch to an inner executor (the same pool or serial
/// executor the untraced run uses) and counts dispatches and tasks.  With
/// timing on it also measures each dispatch's wall, every task's busy
/// time, and charges the dispatch wall to the tracer phase open at the
/// call.  `delay_ns` adds a fixed busy-wait after each dispatch; only the
/// benchmark's sensitivity test sets it.
class TimingExecutor final : public dmpc::RoundExecutor {
 public:
  TimingExecutor(std::shared_ptr<dmpc::RoundExecutor> inner,
                 std::size_t threads, const dmpc::Tracer* tracer,
                 std::uint64_t delay_ns = 0);

  void run(std::size_t count,
           const std::function<void(std::size_t)>& work) override;
  [[nodiscard]] const char* name() const override { return "timing"; }

  void set_timing(bool on) { timing_ = on; }

  struct Totals {
    std::uint64_t dispatches = 0;
    std::uint64_t tasks = 0;
    double wall_s = 0;      ///< summed dispatch wall (the barrier included)
    double busy_s = 0;      ///< summed task time
    double max_task_s = 0;  ///< summed per-dispatch slowest task
    double mean_task_s = 0; ///< summed per-dispatch mean task
    /// Dispatch wall charged to each tracer phase open at the call.
    std::vector<double> wall_by_phase_s =
        std::vector<double>(dmpc::kTracePhaseCount, 0.0);
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

 private:
  std::shared_ptr<dmpc::RoundExecutor> inner_;
  std::size_t threads_;  ///< threads that can run tasks, caller included
  const dmpc::Tracer* tracer_;
  std::uint64_t delay_ns_;
  bool timing_ = true;
  std::vector<std::uint64_t> task_ns_;  ///< one slot per task, reused
  Totals totals_;
};

/// One benchmark-side span: a call into a layer, with the batch or epoch
/// it belongs to as its parent.
struct Span {
  const char* layer = "";
  const char* name = "";
  std::uint64_t parent = 0;  ///< batch or epoch id
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span log; written out only on request, after the run.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  void add(const char* layer, const char* name, std::uint64_t parent,
           std::uint64_t begin_ns, std::uint64_t end_ns) {
    if (on_) spans_.push_back({layer, name, parent, begin_ns, end_ns});
  }
  void write_json(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.  `end_to_end` is filled by untraced
/// runs, `per_layer` by traced ones; the counters the benchmark's tests
/// compare across runs are filled by both.
struct Result {
  bool correct = true;
  std::string why;  ///< first correctness-gate failure
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t input_hash = 0;
  double timed_wall_s = 0;  ///< summed wall of the timed calls
  std::uint64_t dispatches = 0;

  void fail(const std::string& reason, std::uint64_t ops) {
    if (correct) why = reason;
    correct = false;
    failed += ops;
  }
  [[nodiscard]] double value(const std::string& name) const;
};

/// FNV-1a over the generated inputs, so tests can compare them cheaply.
struct InputHash {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
};

}  // namespace perfbench
