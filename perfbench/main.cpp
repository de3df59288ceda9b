// perfbench: runs one workload and prints its metrics, one per line, then
// a JSON summary as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0 reports the end-to-end metrics of an uninstrumented run;
// --trace 1 reports the per-layer metrics of an instrumented one.  Exit
// code 0 on success, 1 when a correctness gate failed, 2 on bad usage or
// an error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\nworkloads:",
               why);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig cfg;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--spans") {
      cfg.spans_path = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::Result r;
  try {
    r = perfbench::run_named(workload, cfg);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 2;
  }

  const auto& metrics = cfg.trace ? r.per_layer : r.end_to_end;
  std::printf("# %s seed=%llu seconds=%s trace=%d attempted=%llu "
              "failed=%llu\n",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const perfbench::Metric& m : metrics) {
    std::printf("%-34s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: correctness gate failed on %s: %s\n",
                 workload.c_str(), r.why.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
