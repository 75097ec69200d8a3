// dpack_perfbench: the wall-clock benchmark. One invocation replays one seeded workload
// against the library's public API for about --seconds, checks the outputs, and prints a
// human-readable report followed by one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. See README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/inprocess.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/options.h"
#include "perfbench/src/service.h"
#include "perfbench/src/workloads.h"
#include "src/common/cpu_affinity.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"run_s", "s", "lower"},
    {"cycle_ms_p50", "ms", "lower"},
    {"cycle_ms_p99", "ms", "lower"},
    {"submit_ms_p50", "ms", "lower"},
    {"submit_ms_p99", "ms", "lower"},
    {"submit_to_grant_ms_p50", "ms", "lower"},
    {"submit_to_grant_ms_p99", "ms", "lower"},
    {"tasks_granted", "count", "higher"},
    {"peak_rss_mb", "MiB", "lower"},
};

// Must match BENCHMARK.json's per_layer list. A layer a workload does not reach reads 0.
constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s", "lower"},
    {"core.schedule_batch_ms_p50", "ms", "lower"},
    {"core.schedule_batch_ms_p99", "ms", "lower"},
    {"core.shell_ms_p50", "ms", "lower"},
    {"core.submit_us_p50", "us", "lower"},
    {"core.rank_walk_ms_per_cycle", "ms", "lower"},
    {"core.tasks_rescored_per_cycle", "count", "lower"},
    {"core.tasks_reused_per_cycle", "count", "higher"},
    {"core.reuse_ratio", "ratio", "higher"},
    {"core.blocks_refreshed_per_cycle", "count", "lower"},
    {"core.full_recomputes", "count", "lower"},
    {"core.merge_allocs", "count", "lower"},
    {"core.pending_p50", "count", "lower"},
    {"core.grants_per_cycle", "count", "higher"},
    {"core.evictions_per_cycle", "count", "lower"},
    {"knapsack.best_alpha_solves_per_cycle", "count", "lower"},
    {"knapsack.best_alpha_ms_per_cycle", "ms", "lower"},
    {"knapsack.requesters_per_solve_p50", "count", "lower"},
    {"block.add_us_p50", "us", "lower"},
    {"block.unlock_ms_p50", "ms", "lower"},
    {"block.retired_frac", "ratio", "higher"},
    {"block.hot_at_end", "count", "lower"},
    {"service.daemon_schedule_ms_mean", "ms", "lower"},
    {"service.cycle_wait_ms_mean", "ms", "lower"},
    {"service.messages_per_cycle", "count", "lower"},
    {"service.bytes_per_cycle", "B", "lower"},
    {"service.score_rounds_per_cycle", "count", "lower"},
    {"service.ring_stalls_per_cycle", "count", "lower"},
    {"service.net_frames_per_op", "count", "lower"},
    {"service.net_bytes_per_op", "B", "lower"},
    {"service.daemon_cpu_ms_per_cycle", "ms", "lower"},
    {"service.daemon_peak_rss_mb", "MiB", "lower"},
    {"proc.cpu_s", "s", "lower"},
    {"trace.overhead_frac", "ratio", "lower"},
};

std::string ReadTrimmed(const std::string& path) {
  std::ifstream in(path);
  std::string text;
  std::getline(in, text);
  return text;
}

// nproc, CPU model, cache sizes (sysfs), compiler and build type, on one line.
std::string HostFingerprint() {
  std::ostringstream out;
  out << "nproc=" << dpack::AllowedCores().size()
      << " online=" << sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      out << " cpu=\"" << (colon == std::string::npos ? line : line.substr(colon + 2)) << "\"";
      break;
    }
  }
  out << " caches=";
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  bool any = false;
  for (int i = 0; i < 8; ++i) {
    std::string level = ReadTrimmed(base + std::to_string(i) + "/level");
    if (level.empty()) {
      continue;
    }
    std::string type = ReadTrimmed(base + std::to_string(i) + "/type");
    std::string size = ReadTrimmed(base + std::to_string(i) + "/size");
    out << (any ? "," : "") << "L" << level
        << (type == "Data" ? "d" : type == "Instruction" ? "i" : "") << ":" << size;
    any = true;
  }
  if (!any) {
    out << "unknown";
  }
  out << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE;
  return out.str();
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "dpack_perfbench: %s\n%s", error.c_str(), UsageText());
    return 2;
  }
  const WorkloadDef* def = FindWorkload(options.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "dpack_perfbench: unknown workload '%s'\n%s",
                 options.workload.c_str(), UsageText());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d scale=%g\n", def->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale);
  std::printf("host: %s\n", HostFingerprint().c_str());

  RunReport report = def->kind == WorkloadKind::kServiceSocket
                         ? RunServiceWorkload(*def, options)
                         : RunInProcessWorkload(*def, options);

  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  std::string metrics_json;
  for (const MetricDef& metric : options.trace ? std::span<const MetricDef>(kPerLayer)
                                               : std::span<const MetricDef>(kEndToEnd)) {
    auto it = report.metrics.find(metric.name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    report.Check(std::isfinite(value), std::string("metric ") + metric.name + " is not finite");
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    std::printf("  %-38s %16.6f %-6s (%s is better)\n", metric.name, value, metric.unit,
                metric.better);
    metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" + metric.name +
                    "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"" + metric.unit +
                    "\"}";
  }
  double failed_frac = report.attempted == 0 ? 1.0
                                             : static_cast<double>(report.failed) /
                                                   static_cast<double>(report.attempted);
  std::printf("  %-38s %16.6f %-6s (lower is better; %llu of %llu calls and checks)\n",
              "failed_frac", failed_frac, "ratio",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
