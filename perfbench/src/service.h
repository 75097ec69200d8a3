// The service_socket workload: a GrantService + NetServiceFront daemon forked onto a Unix
// socket (default fleet of scoring workers), with this process as the single tenant
// replaying the trace through ServiceClient.

#ifndef PERFBENCH_SRC_SERVICE_H_
#define PERFBENCH_SRC_SERVICE_H_

#include "perfbench/src/measure.h"
#include "perfbench/src/options.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

RunReport RunServiceWorkload(const WorkloadDef& def, const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVICE_H_
