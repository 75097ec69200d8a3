#include "perfbench/src/measure.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double CpuSeconds(const struct rusage& usage) {
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb(const struct rusage& usage) {
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct rusage SelfUsage() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

uint32_t SpanRecorder::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

size_t SpanRecorder::Begin(uint32_t name, uint32_t cycle) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.cycle = cycle;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  int64_t now = NowNs();
  spans_[index].end_ns = now;
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<double> SpanRecorder::DurationsMs(uint32_t name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(NsToMs(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::vector<double> SpanRecorder::ChildTimeMs() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child[static_cast<size_t>(span.parent)] += NsToMs(span.end_ns - span.start_ns);
    }
  }
  return child;
}

std::vector<double> SpanRecorder::SelfTimesMs(uint32_t name) const {
  std::vector<double> child = ChildTimeMs();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(NsToMs(spans_[i].end_ns - spans_[i].start_ns) - child[i]);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::TotalSelfMs() const {
  std::vector<double> child = ChildTimeMs();
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    totals[names_[spans_[i].name]] +=
        NsToMs(spans_[i].end_ns - spans_[i].start_ns) - child[i];
  }
  return totals;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index,name,parent,cycle,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%d,%u,%lld,%lld\n", i, names_[s.name].c_str(), s.parent, s.cycle,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void ReportSpans(const SpanRecorder& spans, const std::string& workload, uint64_t seed) {
  std::printf("self time per span (last traced replay, ms total):\n");
  for (const auto& [name, ms] : spans.TotalSelfMs()) {
    std::printf("  %-28s %12.3f\n", name.c_str(), ms);
  }
  const std::string dir = ".bench_build/spans";
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  std::string path = dir + "/" + workload + "_seed" + std::to_string(seed) + ".spans.csv";
  bool wrote = spans.WriteCsv(path);
  std::printf("spans: %zu written to %s%s\n", spans.spans().size(), path.c_str(),
              wrote ? "" : " (FAILED)");
}

}  // namespace perfbench
