// In-process workloads (deep_queue, grant_churn): the seeded trace is replayed closed-loop
// into BlockManager + OnlineScheduler(CreateScheduler(kDpack)) in the sim driver's event
// order (blocks, then tasks, then the cycle at each instant).

#ifndef PERFBENCH_SRC_INPROCESS_H_
#define PERFBENCH_SRC_INPROCESS_H_

#include "perfbench/src/measure.h"
#include "perfbench/src/options.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

// Runs the whole invocation for an in-process workload: set-up samples, the timed replays
// (end-to-end metrics, or per-layer metrics when options.trace), and every output check.
RunReport RunInProcessWorkload(const WorkloadDef& def, const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPROCESS_H_
