// Measurement plumbing shared by the workloads: a monotonic clock, sample summaries, the
// span recorder of a traced run, process resource reads, and the result a workload hands
// back to the report.

#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Linear-interpolation quantile of `values` (q in [0, 1]); 0 for an empty set. Sorts a copy.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// User + system CPU seconds of a rusage record.
double CpuSeconds(const struct rusage& usage);
// Peak resident set of a rusage record, in MiB (Linux reports ru_maxrss in KiB).
double PeakRssMb(const struct rusage& usage);
struct rusage SelfUsage();

// One call into a layer, recorded by a traced run. Spans nest: `parent` is the index of
// the enclosing span (-1 for a root) and `cycle` the scheduling cycle the call belongs to
// (calls between two cycles belong to the next one).
struct Span {
  uint32_t name = 0;  // Index into SpanRecorder::names().
  int32_t parent = -1;
  uint32_t cycle = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store: Begin/End push and pop an open-span stack, so the parent link is
// whatever span is open when a call starts. Nothing is written until WriteCsv.
class SpanRecorder {
 public:
  uint32_t Intern(const std::string& name);
  // Opens a span (parent = the innermost open span); returns its index.
  size_t Begin(uint32_t name, uint32_t cycle);
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  // Duration of every span named `name`, in milliseconds, in recording order.
  std::vector<double> DurationsMs(uint32_t name) const;
  // Self time of every span named `name` (its duration minus the time its direct children
  // cover), in milliseconds, in recording order.
  std::vector<double> SelfTimesMs(uint32_t name) const;
  // Total self time per span name, in milliseconds.
  std::map<std::string, double> TotalSelfMs() const;

  // Writes "index,name,parent,cycle,start_ns,end_ns" rows. Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<double> ChildTimeMs() const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// RAII span: opens on construction, closes on destruction; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, uint32_t name, uint32_t cycle)
      : recorder_(recorder), index_(recorder ? recorder->Begin(name, cycle) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

// Prints each span name's total self time and writes the span table to
// .bench_build/spans/<workload>_seed<seed>.spans.csv under the working directory.
void ReportSpans(const SpanRecorder& spans, const std::string& workload, uint64_t seed);

// What one benchmark invocation measured. Metrics are keyed by the names BENCHMARK.json
// declares; `failed_checks` lists every failed call or output check by description.
struct RunReport {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // Counts one attempted operation or check; a failure is recorded with its description.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
