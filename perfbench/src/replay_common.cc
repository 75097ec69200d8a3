#include "perfbench/src/replay_common.h"

#include <cstdio>

#include "src/rdp/alpha_grid.h"
#include "src/rdp/rdp_curve.h"
#include "src/workload/curve_pool.h"

namespace perfbench {

dpack::ScenarioWorkload GenerateWorkload(const dpack::ScenarioSpec& spec) {
  dpack::AlphaGridPtr grid = dpack::AlphaGrid::Default();
  dpack::CurvePool pool(grid, dpack::BlockCapacityCurve(grid, spec.eps_g, spec.delta_g));
  return dpack::GenerateScenario(pool, spec);
}

void PrintSetupSamples(const std::vector<double>& setup_s) {
  std::printf("setup:");
  for (double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf(" s\n");
}

uint64_t CountBudgetViolations(const dpack::BlockManager& blocks) {
  uint64_t violations = 0;
  for (size_t j = 0; j < blocks.block_count(); ++j) {
    const dpack::PrivacyBlock& block = blocks.block(static_cast<dpack::BlockId>(j));
    const dpack::RdpCurve& capacity = block.capacity();
    const dpack::RdpCurve& consumed = block.consumed();
    bool safe = false;
    bool charged = false;
    for (size_t i = 0; i < capacity.size(); ++i) {
      charged = charged || consumed.epsilon(i) > 0.0;
      double cap = capacity.epsilon(i);
      if (cap > 0.0 && consumed.epsilon(i) <= cap + 1e-9 * (1.0 + cap)) {
        safe = true;
        break;
      }
    }
    if (!safe && charged) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace perfbench
