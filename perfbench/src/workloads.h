// The benchmark's workloads: seeded scenario specs replayed closed-loop against the library.
// Every workload is a ScenarioSpec (src/workload/scenario.h) built from (seed, scale); the
// program under test only ever sees the generated tasks and block stream.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/workload/scenario.h"

namespace perfbench {

enum class WorkloadKind { kInProcess, kServiceSocket };

struct WorkloadDef {
  const char* name;
  WorkloadKind kind;
  // The spec at `scale` (1 = the benchmark's size; smaller shrinks length and rate).
  dpack::ScenarioSpec (*spec)(uint64_t seed, double scale);
  // Scale of the reduced run checked against the recompute reference (in-process only).
  double oracle_scale;
};

// The registered workload called `name`, or nullptr.
const WorkloadDef* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
