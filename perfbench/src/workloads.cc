#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

using dpack::ScenarioSpec;

size_t Scaled(double base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(base * scale)));
}

// Read-heavy steady state: a deep queue of most-recent-k DPack tasks (unit weights, the
// paper's objective) over a one-block-per-period stream. Few blocks change per cycle, so
// almost every cached score is reused and the cycle is dominated by the rank walk over
// ~1.2k pending tasks. The queue is kept to that depth so one replay takes about 0.2 s: a
// run then holds over a hundred replays, enough for every cycle to have a fastest execution
// undisturbed by other work on the host (see FastestSamples).
ScenarioSpec DeepQueue(uint64_t seed, double scale) {
  ScenarioSpec spec;
  spec.name = "deep_queue";
  spec.seed = seed;
  spec.num_blocks = Scaled(1200, scale, 16);
  spec.block_interval = 1.0;
  spec.arrival = dpack::ArrivalProcess::kPoisson;
  spec.task_span = static_cast<double>(spec.num_blocks);
  spec.task_rate = 12.0 * scale;
  spec.mix = dpack::MechanismMix::kGaussianBuckets;
  spec.demand = dpack::DemandDistribution::kFixedEpsMin;
  spec.weights = dpack::WeightDistribution::kUnitWeight;
  spec.selection = dpack::BlockSelectionPolicy::kMostRecentK;
  spec.timeouts = dpack::TimeoutRegime::kFixedTimeout;
  spec.timeout = std::max(4.0, 150.0 * scale);
  spec.unlock_steps = 8;
  return spec;
}

// Write-heavy churn: uniformly weighted (the weighted best-alpha path) capacity-fraction
// tasks, each naming one block drawn uniformly from those arrived, over a fast block
// stream (50 blocks per period). Every grant consumes half a block and ~400 blocks unlock
// each cycle, so most best-alpha solves are tiny, few scores survive a cycle under the
// short timeout, and blocks retire continuously. The stream is kept to 75k blocks so one
// replay takes about 0.25 s (see DeepQueue).
ScenarioSpec GrantChurn(uint64_t seed, double scale) {
  ScenarioSpec spec;
  spec.name = "grant_churn";
  spec.seed = seed;
  spec.block_interval = 0.02;
  spec.num_blocks = Scaled(75000, scale, 400);
  spec.arrival = dpack::ArrivalProcess::kPoisson;
  spec.task_span = static_cast<double>(spec.num_blocks) * spec.block_interval;
  spec.task_rate = 37.5;
  spec.mu_blocks = 1.0;  // One explicit block per task.
  spec.sigma_blocks = 0.0;
  spec.demand = dpack::DemandDistribution::kCapacityFraction;
  spec.capacity_divisor = 2;
  spec.weights = dpack::WeightDistribution::kUniformWeight;
  spec.selection = dpack::BlockSelectionPolicy::kUniformList;
  spec.timeouts = dpack::TimeoutRegime::kFixedTimeout;
  spec.timeout = 2.0;
  spec.unlock_steps = 8;
  return spec;
}

// Transport-bound: the registry's steady_poisson scenario stretched over a long block
// stream, driven through the socket edge of a forked grant-service daemon.
ScenarioSpec ServiceSocket(uint64_t seed, double scale) {
  ScenarioSpec spec = dpack::ScenarioByName("steady_poisson", seed);
  spec.name = "service_socket";
  spec.num_blocks = Scaled(3000, scale, 16);
  spec.task_span = static_cast<double>(spec.num_blocks);
  spec.timeouts = dpack::TimeoutRegime::kFixedTimeout;
  spec.timeout = 30.0;
  return spec;
}

constexpr WorkloadDef kWorkloads[] = {
    {"deep_queue", WorkloadKind::kInProcess, &DeepQueue, 0.5},
    {"grant_churn", WorkloadKind::kInProcess, &GrantChurn, 0.08},
    {"service_socket", WorkloadKind::kServiceSocket, &ServiceSocket, 0.0},
};

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) {
      return &def;
    }
  }
  return nullptr;
}

}  // namespace perfbench
