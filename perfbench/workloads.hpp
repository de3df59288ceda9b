// The benchmark's workloads.  Each run builds its inputs from the seed
// (untimed), sets the system up several times, measures, then checks
// every output against src/oracle outside the timed region.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "instrument.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from an uninstrumented run; true: the
  /// per-layer metrics from an instrumented one.
  bool trace = false;
  /// Test only: fixed busy-wait added to every executor dispatch.  A
  /// nonzero delay installs the timing wrapper even when untraced.
  std::uint64_t delay_ns = 0;
  /// Traced runs: write the benchmark's spans here when non-empty.
  std::string spans_path;
};

/// Churn on a preprocessed graph through DynamicForest::apply_batch, on a
/// thread pool of 3 workers plus the calling thread, with read batches
/// after each update batch.
struct UpdateWorkload {
  const char* name;
  std::size_t n;
  double edges_per_vertex;  ///< initial G(n, m) with m = this * n
  bool weighted;            ///< (1+eps)-MST, eps = 0.1, not connectivity
  std::size_t batch;  ///< updates per apply_batch
  std::size_t reads;  ///< queries per answer_queries call
  std::size_t read_batches;  ///< answer_queries calls after each batch
  double batches_per_s;     ///< sizes a run: batches = this * seconds
  std::size_t min_batches;  ///< ... but never fewer than this
  std::size_t setups;       ///< set-ups per run; setup_s is their median
  bool validate_untraced;   ///< also run validate() in untraced runs
  std::size_t overhead_pairs;  ///< traced: ABAB batch pairs for overhead
};

/// Zipfian connectivity-as-a-service traffic through serve::QueryBroker
/// on the serial executor, as a closed loop: one client submits a 256-op
/// window, pumps, then polls every answer.
struct ServeWorkload {
  const char* name;
  std::size_t n;
  double rate;  ///< sizes a run: ops = rate * seconds
  std::size_t setups;
  std::size_t overhead_pairs;  ///< traced: ABAB window pairs for overhead
};

extern const UpdateWorkload kSparse1m;
extern const UpdateWorkload kGiantMst;
extern const ServeWorkload kServeClosed;

Result run_update(const UpdateWorkload& w, const RunConfig& cfg);
Result run_serve(const ServeWorkload& w, const RunConfig& cfg);

/// Runs the workload called `name`; throws std::invalid_argument for an
/// unknown name.
Result run_named(const std::string& name, const RunConfig& cfg);
std::vector<std::string> workload_names();

}  // namespace perfbench
