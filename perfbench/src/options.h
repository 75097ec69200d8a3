// Command line of the wall-clock benchmark. Every flag is checked: an unknown flag, a
// repeated flag, a missing value or a malformed number is an error, never a silent default
// (a typo must not quietly measure a different configuration).

#ifndef PERFBENCH_SRC_OPTIONS_H_
#define PERFBENCH_SRC_OPTIONS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;   // --workload <name> (required)
  uint64_t seed = 1;      // --seed <n>
  double seconds = 10.0;  // --seconds <n>: the timed phase's wall budget
  bool trace = false;     // --trace <0|1>: per-layer run instead of the end-to-end run
  // --scale <x> in (0, 1]: shrinks every workload's length and rate (smoke tests only;
  // the benchmark proper always runs at 1).
  double scale = 1.0;
};

// Parses argv into `out`. Returns false with a diagnostic in `error` on any bad input.
bool ParseOptions(int argc, char** argv, Options* out, std::string* error);

const char* UsageText();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OPTIONS_H_
