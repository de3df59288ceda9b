#include "instrument.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuPin::CpuPin(std::size_t from_end) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 0) return;
  int target = count - 1 - static_cast<int>(from_end % count);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

TimingExecutor::TimingExecutor(std::shared_ptr<dmpc::RoundExecutor> inner,
                               std::size_t threads,
                               const dmpc::Tracer* tracer,
                               std::uint64_t delay_ns)
    : inner_(std::move(inner)),
      threads_(threads),
      tracer_(tracer),
      delay_ns_(delay_ns) {}

void TimingExecutor::run(std::size_t count,
                         const std::function<void(std::size_t)>& work) {
  const auto spin = [this] {
    if (delay_ns_ == 0) return;
    const std::uint64_t until = now_ns() + delay_ns_;
    while (now_ns() < until) {
    }
  };
  ++totals_.dispatches;
  totals_.tasks += count;
  if (!timing_) {
    inner_->run(count, work);
    spin();
    return;
  }
  if (task_ns_.size() < count) task_ns_.resize(count);
  const dmpc::TracePhase phase =
      tracer_ != nullptr ? tracer_->current_phase() : dmpc::TracePhase::kNone;
  const std::uint64_t begin = now_ns();
  inner_->run(count, [this, &work](std::size_t i) {
    const std::uint64_t t = now_ns();
    work(i);
    task_ns_[i] = now_ns() - t;
  });
  spin();
  const double wall = static_cast<double>(now_ns() - begin) / 1e9;
  std::uint64_t busy = 0;
  std::uint64_t slowest = 0;
  for (std::size_t i = 0; i < count; ++i) {
    busy += task_ns_[i];
    slowest = std::max(slowest, task_ns_[i]);
  }
  totals_.wall_s += wall;
  totals_.busy_s += static_cast<double>(busy) / 1e9;
  totals_.max_task_s += static_cast<double>(slowest) / 1e9;
  if (count > 0) {
    totals_.mean_task_s +=
        static_cast<double>(busy) / 1e9 / static_cast<double>(count);
  }
  totals_.wall_by_phase_s[static_cast<std::size_t>(phase)] += wall;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"begin_ns\":" << s.begin_ns
        << ",\"end_ns\":" << s.end_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

double Result::value(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const Metric& m : *list) {
      if (m.name == name) return m.value;
    }
  }
  throw std::out_of_range("no metric " + name);
}

}  // namespace perfbench
