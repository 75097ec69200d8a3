// Pieces both replay drivers share: workload set-up, the output checks on final block and
// queue state, and the timed-phase loop bound.

#ifndef PERFBENCH_SRC_REPLAY_COMMON_H_
#define PERFBENCH_SRC_REPLAY_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "perfbench/src/measure.h"
#include "src/block/block_manager.h"
#include "src/core/metrics.h"
#include "src/core/task.h"
#include "src/workload/scenario.h"

namespace perfbench {

// Builds the curve pool and generates the workload for `spec` (what setup_s and
// workload.generate_s time).
dpack::ScenarioWorkload GenerateWorkload(const dpack::ScenarioSpec& spec);

// Blocks whose consumption exceeds capacity at every usable order beyond the filters'
// admission tolerance (1e-9 * (1 + capacity)): the per-block budget-safety invariant, read
// from the raw capacity and consumed curves rather than through the filter itself.
uint64_t CountBudgetViolations(const dpack::BlockManager& blocks);

// Prints every set-up time of the run (setup_s is their median).
void PrintSetupSamples(const std::vector<double>& setup_s);

// Queue conservation: every submitted task was granted, evicted, or is still pending.
inline bool Conserved(const dpack::AllocationMetrics& m, size_t pending) {
  return m.allocated() + m.evicted() + pending == m.submitted();
}

// True while another replay of about `last_ns` still fits in the `seconds` budget that
// started at `start_ns`.
inline bool AnotherReplayFits(int64_t start_ns, int64_t last_ns, double seconds) {
  return NsToS(NowNs() - start_ns + last_ns) <= seconds;
}

using GrantTrace = std::vector<std::vector<dpack::TaskId>>;

// One replay's cycle latency summary and sample counts.
struct LatencySummary {
  double cycle_mean = 0.0;
  double cycle_p50 = 0.0;
  double cycle_p99 = 0.0;
  size_t cycles = 0;
  size_t submits = 0;
  size_t grants = 0;
};

// The latency samples the end-to-end timings are taken from: for each cycle, submit and
// grant, the fastest of its executions across the run's untraced replays. Every replay runs
// the same trace and grants the same tasks in the same order (checked), so the i-th sample
// of each replay times the same work. Other work on a shared host only adds time, so the
// fastest execution is the closest estimate of the program's own cost, and the quantiles of
// these minima move far less with how busy the host was than those of any one replay.
struct FastestSamples {
  std::vector<double> cycle_ms;
  std::vector<double> submit_ms;
  std::vector<double> submit_to_grant_ms;  // In grant order.
};

// Lowers each element of *fastest to the matching sample (the first call copies).
inline void KeepFastest(const std::vector<double>& samples, std::vector<double>* fastest) {
  if (fastest->empty()) {
    *fastest = samples;
    return;
  }
  for (size_t i = 0; i < std::min(samples.size(), fastest->size()); ++i) {
    (*fastest)[i] = std::min((*fastest)[i], samples[i]);
  }
}

// Reduces a finished replay to its summary and to whether it granted exactly what the
// run's first replay did (the first replay's trace is moved into *first), and folds its
// samples into *fastest when that is non-null (untraced replays). The raw samples and grant
// lists are released, so a run holds one replay's data however many it makes, and peak
// memory does not grow with host speed.
template <typename Replay>
void Summarize(Replay& replay, GrantTrace* first, FastestSamples* fastest) {
  if (fastest != nullptr) {
    KeepFastest(replay.cycle_ms, &fastest->cycle_ms);
    KeepFastest(replay.submit_ms, &fastest->submit_ms);
    KeepFastest(replay.submit_to_grant_ms, &fastest->submit_to_grant_ms);
  }
  LatencySummary& s = replay.summary;
  s.cycle_mean = Mean(replay.cycle_ms);
  s.cycle_p50 = Quantile(replay.cycle_ms, 0.5);
  s.cycle_p99 = Quantile(replay.cycle_ms, 0.99);
  s.cycles = replay.cycle_ms.size();
  s.submits = replay.submit_ms.size();
  s.grants = replay.submit_to_grant_ms.size();
  replay.cycle_ms = {};
  replay.submit_ms = {};
  replay.submit_to_grant_ms = {};
  if (first->empty()) {
    *first = std::move(replay.grants);
  } else {
    replay.same_grants = replay.grants == *first;
  }
  replay.grants = {};
}

// Prints every timed replay's wall time and cycle p50 and p99, in run order.
template <typename Replay>
void PrintReplaySamples(const std::vector<Replay>& replays) {
  std::printf("replays (run_s/cycle_ms_p50/cycle_ms_p99):");
  for (const Replay& replay : replays) {
    std::printf(" %.4f/%.4f/%.4f", NsToS(replay.wall_ns), replay.summary.cycle_p50,
                replay.summary.cycle_p99);
  }
  std::printf("\n");
}

// Fewest samples of one kind in any replay (each replay's p99 needs >= 1000).
template <typename Replay>
size_t MinSamples(const std::vector<Replay>& replays, size_t LatencySummary::*field) {
  size_t fewest = replays.empty() ? 0 : replays.front().summary.*field;
  for (const Replay& replay : replays) {
    fewest = std::min(fewest, replay.summary.*field);
  }
  return fewest;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_COMMON_H_
