#include "perfbench/src/inprocess.h"

#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/replay_common.h"
#include "src/block/block_manager.h"
#include "src/core/efficiency.h"
#include "src/core/online_scheduler.h"
#include "src/core/schedule_context.h"
#include "src/core/scheduler.h"
#include "src/sim/sim_driver.h"

namespace perfbench {

namespace {

using dpack::BlockId;
using dpack::BlockManager;
using dpack::Task;
using dpack::TaskId;

// CreateScheduler's default approximation parameter; the best-alpha replay solves with it.
constexpr double kDefaultEta = 0.05;

// Per-layer observations of one traced replay: the span store plus the counters the timing
// decorator reads from the engine each cycle.
struct LayerTrace {
  SpanRecorder spans;
  uint32_t add_block = spans.Intern("block.AddBlock");
  uint32_t submit = spans.Intern("core.Submit");
  uint32_t unlock = spans.Intern("block.UpdateUnlocks");
  uint32_t run_cycle = spans.Intern("core.RunCycle");
  uint32_t resolve_set = spans.Intern("trace.resolve_set");
  uint32_t schedule_batch = spans.Intern("core.ScheduleBatch");
  uint32_t replay = spans.Intern("knapsack.best_alpha_replay");
  uint32_t cycle = 0;  // Id stamped on spans recorded now.

  std::vector<double> pending;            // Batch size per cycle.
  std::vector<double> requesters;         // Requesters per replayed solve.
  uint64_t solves = 0;                    // Replayed BestAlphaForBlock calls.
  uint64_t replay_mismatches = 0;         // Cycles whose solve count != the engine's.
  dpack::ScheduleContextStats engine;     // Engine counter deltas over the replay.
};

// Timing decorator around the DPack engine for the traced replay. It times ScheduleBatch,
// reads the engine's counter deltas, and replays the cycle's best-alpha solves through the
// public BestAlphaForBlock so their cost can be separated from score + merge + walk.
//
// A block is re-solved when it is new, its version() changed, or its requester sequence
// changed since the previous non-empty batch — the engine's own dirty rule, recomputed
// here from public state (the version tree and MemberSigMix). The replay count must equal
// the engine's best_alpha_recomputes delta, or the cycle is reported as a mismatch.
class TimingScheduler : public dpack::Scheduler {
 public:
  TimingScheduler(std::unique_ptr<dpack::Scheduler> inner, LayerTrace* trace)
      : inner_(std::move(inner)),
        greedy_(dynamic_cast<dpack::GreedyScheduler*>(inner_.get())),
        trace_(trace) {}

  std::string name() const override { return inner_->name(); }

  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override {
    if (pending.empty() || greedy_ == nullptr || greedy_->engine() == nullptr) {
      // The engine returns before observing blocks on an empty batch, so the change
      // baseline stays where it is.
      ScopedSpan span(&trace_->spans, trace_->schedule_batch, trace_->cycle);
      return inner_->ScheduleBatch(pending, blocks);
    }
    dpack::ScheduleContextStats before = greedy_->engine()->stats();
    {
      ScopedSpan span(&trace_->spans, trace_->resolve_set, trace_->cycle);
      CollectResolveSet(pending, blocks);
    }
    std::vector<size_t> granted;
    {
      ScopedSpan span(&trace_->spans, trace_->schedule_batch, trace_->cycle);
      granted = inner_->ScheduleBatch(pending, blocks);
    }
    dpack::ScheduleContextStats delta = greedy_->engine()->stats().Delta(before);
    {
      ScopedSpan span(&trace_->spans, trace_->replay, trace_->cycle);
      for (size_t k = 0; k < dirty_ids_.size(); ++k) {
        sink_ += dpack::BestAlphaForBlock(pending, requesters_[k], curves_[k], kDefaultEta);
      }
    }
    for (size_t k = 0; k < dirty_ids_.size(); ++k) {
      trace_->requesters.push_back(static_cast<double>(requesters_[k].size()));
    }
    trace_->pending.push_back(static_cast<double>(pending.size()));
    trace_->solves += dirty_ids_.size();
    if (delta.best_alpha_recomputes != dirty_ids_.size()) {
      ++trace_->replay_mismatches;
    }
    Accumulate(delta);
    return granted;
  }

 private:
  void MarkDirty(size_t j) {
    if (dirty_stamp_[j] != stamp_) {
      dirty_stamp_[j] = stamp_;
      dirty_ids_.push_back(static_cast<BlockId>(j));
    }
  }

  void CollectResolveSet(std::span<const Task> pending, const BlockManager& blocks) {
    ++stamp_;
    dirty_ids_.clear();
    size_t count = blocks.block_count();
    last_version_.resize(count, 0);
    dirty_stamp_.resize(count, 0);
    touched_stamp_.resize(count, 0);
    member_sig_.resize(count, dpack::kMemberSigSeed);
    sig_scratch_.resize(count, dpack::kMemberSigSeed);
    dirty_pos_.resize(count, 0);
    for (size_t j = known_; j < count; ++j) {
      last_version_[j] = blocks.block(static_cast<BlockId>(j)).version();
      MarkDirty(j);
    }
    known_ = count;
    const dpack::BlockVersionTree& tree = blocks.version_tree();
    group_seen_.resize(tree.group_count(), 0);
    for (size_t g = 0; g < group_seen_.size(); ++g) {
      uint64_t sum = tree.group_sum(g);
      if (sum == group_seen_[g]) {
        continue;
      }
      group_seen_[g] = sum;
      size_t begin = g << dpack::BlockVersionTree::kGroupShift;
      size_t end = std::min(begin + (size_t{1} << dpack::BlockVersionTree::kGroupShift), count);
      for (size_t j = begin; j < end; ++j) {
        uint64_t version = blocks.block(static_cast<BlockId>(j)).version();
        if (version != last_version_[j]) {
          last_version_[j] = version;
          MarkDirty(j);
        }
      }
    }
    // Requester sequences: a block's signature folds the ids of the tasks requesting it in
    // batch order; a block that lost every requester falls back to the seed.
    touched_ids_.clear();
    for (const Task& task : pending) {
      for (BlockId id : task.blocks) {
        size_t j = static_cast<size_t>(id);
        if (touched_stamp_[j] != stamp_) {
          touched_stamp_[j] = stamp_;
          touched_ids_.push_back(id);
          sig_scratch_[j] = dpack::kMemberSigSeed;
        }
        sig_scratch_[j] = dpack::MemberSigMix(sig_scratch_[j], static_cast<uint64_t>(task.id));
      }
    }
    for (BlockId id : active_ids_) {
      size_t j = static_cast<size_t>(id);
      if (touched_stamp_[j] != stamp_ && member_sig_[j] != dpack::kMemberSigSeed) {
        member_sig_[j] = dpack::kMemberSigSeed;
        MarkDirty(j);
      }
    }
    active_ids_.clear();
    for (BlockId id : touched_ids_) {
      size_t j = static_cast<size_t>(id);
      if (sig_scratch_[j] != member_sig_[j]) {
        member_sig_[j] = sig_scratch_[j];
        MarkDirty(j);
      }
      if (member_sig_[j] != dpack::kMemberSigSeed) {
        active_ids_.push_back(id);
      }
    }
    // The replay's inputs, captured before the engine commits this cycle's grants.
    requesters_.resize(dirty_ids_.size());
    curves_.clear();
    for (size_t k = 0; k < dirty_ids_.size(); ++k) {
      dirty_pos_[static_cast<size_t>(dirty_ids_[k])] = k;
      requesters_[k].clear();
      curves_.push_back(blocks.block(dirty_ids_[k]).AvailableCurve());
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      for (BlockId id : pending[i].blocks) {
        size_t j = static_cast<size_t>(id);
        if (dirty_stamp_[j] == stamp_) {
          requesters_[dirty_pos_[j]].push_back(i);
        }
      }
    }
  }

  void Accumulate(const dpack::ScheduleContextStats& delta) {
    dpack::ScheduleContextStats& total = trace_->engine;
    total.cycles += delta.cycles;
    total.tasks_rescored += delta.tasks_rescored;
    total.tasks_reused += delta.tasks_reused;
    total.blocks_refreshed += delta.blocks_refreshed;
    total.best_alpha_recomputes += delta.best_alpha_recomputes;
    total.full_recomputes += delta.full_recomputes;
    total.merge_allocs += delta.merge_allocs;
  }

  std::unique_ptr<dpack::Scheduler> inner_;
  dpack::GreedyScheduler* greedy_;
  LayerTrace* trace_;
  size_t sink_ = 0;  // Keeps the replayed solves' results observable.

  size_t known_ = 0;
  uint64_t stamp_ = 0;
  std::vector<uint64_t> last_version_;
  std::vector<uint64_t> group_seen_;
  std::vector<uint64_t> dirty_stamp_;
  std::vector<uint64_t> touched_stamp_;
  std::vector<uint64_t> member_sig_;
  std::vector<uint64_t> sig_scratch_;
  std::vector<size_t> dirty_pos_;
  std::vector<BlockId> dirty_ids_;
  std::vector<BlockId> touched_ids_;
  std::vector<BlockId> active_ids_;
  std::vector<std::vector<size_t>> requesters_;
  std::vector<dpack::RdpCurve> curves_;
};

// Everything one replay produced.
struct Replay {
  int64_t wall_ns = 0;
  double cpu_s = 0.0;
  std::vector<double> cycle_ms;
  std::vector<double> submit_ms;
  std::vector<double> submit_to_grant_ms;
  GrantTrace grants;
  LatencySummary summary;
  bool same_grants = true;  // Granted exactly what the run's first replay did.
  uint64_t calls = 0;
  uint64_t failed_calls = 0;
  dpack::AllocationMetrics metrics;
  size_t pending_at_end = 0;
  size_t blocks = 0;
  size_t retired = 0;
  size_t hot = 0;
  uint64_t budget_violations = 0;
};

// Replays `workload` closed-loop: at every cycle instant (CycleInstants over
// SimulationHorizon), first every block and task due by then in (time, block-before-task)
// order, then RunCycle; arrivals past the last cycle are still submitted, as the sim
// driver does. `trace` non-null wraps the engine in the timing decorator and records spans.
Replay ReplayInProcess(const dpack::ScenarioWorkload& workload, std::vector<Task> tasks,
                       LayerTrace* trace) {
  const dpack::SimConfig& sim = workload.sim;
  std::vector<double> block_times = dpack::BlockArrivalSchedule(sim);
  double horizon = dpack::SimulationHorizon(sim, tasks, block_times);
  double next_after_horizon = 0.0;
  std::vector<double> instants = dpack::CycleInstants(sim, horizon, &next_after_horizon);

  Replay out;
  out.cycle_ms.reserve(instants.size());
  out.submit_ms.reserve(tasks.size());
  std::vector<int64_t> submit_start(tasks.size(), 0);
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].id != static_cast<TaskId>(i)) {
      out.failed_calls = 1;  // Latency bookkeeping needs dense ids; the generator gives them.
      return out;
    }
  }

  struct rusage usage_start = SelfUsage();
  int64_t start = NowNs();
  BlockManager blocks(sim.grid, sim.eps_g, sim.delta_g);
  std::unique_ptr<dpack::Scheduler> scheduler = dpack::CreateScheduler(dpack::SchedulerKind::kDpack);
  if (trace != nullptr) {
    scheduler = std::make_unique<TimingScheduler>(std::move(scheduler), trace);
  }
  dpack::OnlineSchedulerConfig config;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  dpack::OnlineScheduler online(std::move(scheduler), &blocks, config);
  SpanRecorder* spans = trace != nullptr ? &trace->spans : nullptr;

  size_t next_block = 0;
  size_t next_task = 0;
  auto arrive_through = [&](double t) {
    while (true) {
      bool block_due = next_block < block_times.size() && block_times[next_block] <= t;
      bool task_due = next_task < tasks.size() && tasks[next_task].arrival_time <= t;
      if (block_due && (!task_due || block_times[next_block] <= tasks[next_task].arrival_time)) {
        ScopedSpan span(spans, trace ? trace->add_block : 0, trace ? trace->cycle : 0);
        blocks.AddBlock(block_times[next_block]);
        ++next_block;
      } else if (task_due) {
        Task& task = tasks[next_task];
        size_t id = static_cast<size_t>(task.id);
        ScopedSpan span(spans, trace ? trace->submit : 0, trace ? trace->cycle : 0);
        int64_t t0 = NowNs();
        bool accepted = online.Submit(std::move(task));
        int64_t t1 = NowNs();
        submit_start[id] = t0;
        out.submit_ms.push_back(NsToMs(t1 - t0));
        ++out.calls;
        out.failed_calls += accepted ? 0 : 1;
        ++next_task;
      } else {
        return;
      }
    }
  };

  out.grants.reserve(instants.size());
  for (size_t c = 0; c < instants.size(); ++c) {
    double t = instants[c];
    if (trace != nullptr) {
      trace->cycle = static_cast<uint32_t>(c);
    }
    arrive_through(t);
    if (trace != nullptr) {
      // Idempotent: RunCycle's own unlock at the same instant then finds nothing to open,
      // so the unlock cost shows here instead of inside the shell.
      ScopedSpan span(spans, trace->unlock, trace->cycle);
      blocks.UpdateUnlocks(t, config.period, config.unlock_steps);
    }
    int64_t t0 = NowNs();
    {
      ScopedSpan span(spans, trace ? trace->run_cycle : 0, trace ? trace->cycle : 0);
      online.RunCycle(t);
    }
    int64_t t1 = NowNs();
    out.cycle_ms.push_back(NsToMs(t1 - t0));
    ++out.calls;
    for (TaskId id : online.last_granted()) {
      out.submit_to_grant_ms.push_back(NsToMs(t1 - submit_start[static_cast<size_t>(id)]));
    }
    out.grants.push_back(online.last_granted());
  }
  if (trace != nullptr) {
    trace->cycle = static_cast<uint32_t>(instants.size());
  }
  arrive_through(std::numeric_limits<double>::infinity());
  out.wall_ns = NowNs() - start;
  out.cpu_s = CpuSeconds(SelfUsage()) - CpuSeconds(usage_start);

  out.metrics = online.metrics();
  out.pending_at_end = online.pending_count();
  out.blocks = blocks.block_count();
  out.retired = blocks.retired_count();
  out.hot = blocks.hot_count();
  out.budget_violations = CountBudgetViolations(blocks);
  return out;
}

// Output checks on one replay's final state.
void CheckReplay(const Replay& replay, size_t task_count, const std::string& label,
                 RunReport* report) {
  report->attempted += replay.calls;
  report->failed += replay.failed_calls;
  if (replay.failed_calls > 0) {
    report->failures.push_back(label + ": " + std::to_string(replay.failed_calls) +
                               " calls failed");
  }
  report->Check(replay.budget_violations == 0,
                label + ": " + std::to_string(replay.budget_violations) +
                    " blocks over budget at every order");
  report->Check(replay.metrics.submitted() == task_count &&
                    Conserved(replay.metrics, replay.pending_at_end),
                label + ": granted + evicted + pending != submitted");
}

// The reduced-scale oracle: the replay's grant trace (default engine) must equal the
// recompute reference's (incremental = false) under RunOnlineSimulation.
bool OracleAgrees(const WorkloadDef& def, const Options& options, std::string* detail) {
  dpack::ScenarioWorkload workload =
      GenerateWorkload(def.spec(options.seed, def.oracle_scale * options.scale));
  Replay replay = ReplayInProcess(workload, workload.tasks, nullptr);
  dpack::SimConfig sim = workload.sim;
  sim.record_grant_trace = true;
  dpack::GreedySchedulerOptions reference_options;
  reference_options.incremental = false;
  dpack::SimResult reference = dpack::RunOnlineSimulation(
      std::make_unique<dpack::GreedyScheduler>(dpack::GreedyMetric::kDpack, reference_options),
      workload.tasks, sim);
  size_t granted = 0;
  for (const auto& cycle : reference.grant_trace) {
    granted += cycle.size();
  }
  *detail = std::to_string(workload.tasks.size()) + " tasks, " +
            std::to_string(reference.grant_trace.size()) + " cycles, " +
            std::to_string(granted) + " grants";
  return replay.failed_calls == 0 && replay.grants == reference.grant_trace;
}

}  // namespace

RunReport RunInProcessWorkload(const WorkloadDef& def, const Options& options) {
  RunReport report;
  dpack::ScenarioSpec spec = def.spec(options.seed, options.scale);

  // The run goes in rounds until --seconds is spent. Each round sets up (generates the
  // workload) and replays it untraced; the traced run adds a traced replay to each round,
  // so the tracing overhead is measured too. Set-ups spread over the whole run, so
  // setup_s, their median, does not rest on one moment of the host's load.
  std::vector<double> setup_s;
  dpack::ScenarioWorkload workload;
  std::vector<Replay> plain;
  std::vector<Replay> traced;
  std::unique_ptr<LayerTrace> trace;
  GrantTrace first_grants;
  FastestSamples fastest;
  double peak_rss_mb = 0.0;
  int64_t start = NowNs();
  int64_t last_ns = 0;
  do {
    int64_t round_start = NowNs();
    workload = GenerateWorkload(spec);
    setup_s.push_back(NsToS(NowNs() - round_start));
    for (int leg = 0; leg < (options.trace ? 2 : 1); ++leg) {
      std::vector<Task> tasks = workload.tasks;  // Copied outside the timed replay.
      if (leg == 0) {
        plain.push_back(ReplayInProcess(workload, std::move(tasks), nullptr));
        Summarize(plain.back(), &first_grants, &fastest);
        if (plain.size() == 1) {
          // One replay's peak: later replays reuse the allocator's free lists, and a peak
          // that crept up with the replay count would depend on the host's speed.
          peak_rss_mb = PeakRssMb(SelfUsage());
        }
      } else {
        trace = std::make_unique<LayerTrace>();
        traced.push_back(ReplayInProcess(workload, std::move(tasks), trace.get()));
        Summarize(traced.back(), &first_grants, nullptr);
      }
    }
    last_ns = NowNs() - round_start;
  } while (AnotherReplayFits(start, last_ns, options.seconds));
  size_t task_count = workload.tasks.size();
  PrintSetupSamples(setup_s);

  // Output checks: every replay's final state, determinism across replays (traced ones
  // included — the decorator must not change a grant), and the reduced-scale oracle.
  for (size_t r = 0; r < plain.size(); ++r) {
    CheckReplay(plain[r], task_count, "replay " + std::to_string(r), &report);
    report.Check(plain[r].same_grants,
                 "replay " + std::to_string(r) + " granted differently from replay 0");
  }
  for (size_t r = 0; r < traced.size(); ++r) {
    CheckReplay(traced[r], task_count, "traced replay " + std::to_string(r), &report);
    report.Check(traced[r].same_grants,
                 "traced replay " + std::to_string(r) + " granted differently from replay 0");
  }
  std::string oracle_detail;
  bool oracle_ok = OracleAgrees(def, options, &oracle_detail);
  report.Check(oracle_ok, "grant trace differs from the recompute reference at reduced scale (" +
                              oracle_detail + ")");
  std::printf("check: reduced-scale oracle (%s): %s\n", oracle_detail.c_str(),
              oracle_ok ? "equal" : "DIFFERENT");

  std::vector<double> run_s, cpu_s;
  for (const Replay& replay : plain) {
    run_s.push_back(NsToS(replay.wall_ns));
    cpu_s.push_back(replay.cpu_s);
  }
  std::printf("samples: %zu replays; per replay at least %zu cycles, %zu submits, %zu grants\n",
              plain.size(), MinSamples(plain, &LatencySummary::cycles),
              MinSamples(plain, &LatencySummary::submits),
              MinSamples(plain, &LatencySummary::grants));
  PrintReplaySamples(plain);
  auto& m = report.metrics;
  if (!options.trace) {
    m["setup_s"] = Quantile(setup_s, 0.5);
    m["run_s"] = Quantile(run_s, 0.0);  // The fastest replay, as for FastestSamples.
    m["cycle_ms_p50"] = Quantile(fastest.cycle_ms, 0.5);
    m["cycle_ms_p99"] = Quantile(fastest.cycle_ms, 0.99);
    m["submit_ms_p50"] = Quantile(fastest.submit_ms, 0.5);
    m["submit_ms_p99"] = Quantile(fastest.submit_ms, 0.99);
    m["submit_to_grant_ms_p50"] = Quantile(fastest.submit_to_grant_ms, 0.5);
    m["submit_to_grant_ms_p99"] = Quantile(fastest.submit_to_grant_ms, 0.99);
    m["tasks_granted"] = static_cast<double>(plain[0].metrics.allocated());
    m["peak_rss_mb"] = peak_rss_mb;
    return report;
  }

  // Per-layer metrics, from the last traced replay's spans and engine counters.
  const Replay& last = traced.back();
  const SpanRecorder& spans = trace->spans;
  double cycles = static_cast<double>(last.summary.cycles);
  std::vector<double> batch_ms = spans.DurationsMs(trace->schedule_batch);
  std::vector<double> replay_ms = spans.DurationsMs(trace->replay);
  double batch_total = 0.0, replay_total = 0.0;
  for (double v : batch_ms) batch_total += v;
  for (double v : replay_ms) replay_total += v;
  report.Check(trace->replay_mismatches == 0,
               std::to_string(trace->replay_mismatches) +
                   " cycles replayed a different number of best-alpha solves than the engine "
                   "recomputed");
  const dpack::ScheduleContextStats& e = trace->engine;
  double scored = static_cast<double>(e.tasks_rescored + e.tasks_reused);
  std::vector<double> traced_run_s;
  for (const Replay& replay : traced) {
    traced_run_s.push_back(NsToS(replay.wall_ns));
  }

  m["workload.generate_s"] = Quantile(setup_s, 0.5);
  m["core.schedule_batch_ms_p50"] = Quantile(batch_ms, 0.5);
  m["core.schedule_batch_ms_p99"] = Quantile(batch_ms, 0.99);
  m["core.shell_ms_p50"] = Quantile(spans.SelfTimesMs(trace->run_cycle), 0.5);
  m["core.submit_us_p50"] = Quantile(spans.DurationsMs(trace->submit), 0.5) * 1e3;
  m["core.rank_walk_ms_per_cycle"] = (batch_total - replay_total) / cycles;
  m["core.tasks_rescored_per_cycle"] = static_cast<double>(e.tasks_rescored) / cycles;
  m["core.tasks_reused_per_cycle"] = static_cast<double>(e.tasks_reused) / cycles;
  m["core.reuse_ratio"] = scored > 0 ? static_cast<double>(e.tasks_reused) / scored : 0.0;
  m["core.blocks_refreshed_per_cycle"] = static_cast<double>(e.blocks_refreshed) / cycles;
  m["core.full_recomputes"] = static_cast<double>(e.full_recomputes);
  m["core.merge_allocs"] = static_cast<double>(e.merge_allocs);
  m["core.pending_p50"] = Quantile(trace->pending, 0.5);
  m["core.grants_per_cycle"] = static_cast<double>(last.metrics.allocated()) / cycles;
  m["core.evictions_per_cycle"] = static_cast<double>(last.metrics.evicted()) / cycles;
  m["knapsack.best_alpha_solves_per_cycle"] = static_cast<double>(trace->solves) / cycles;
  m["knapsack.best_alpha_ms_per_cycle"] = replay_total / cycles;
  m["knapsack.requesters_per_solve_p50"] = Quantile(trace->requesters, 0.5);
  m["block.add_us_p50"] = Quantile(spans.DurationsMs(trace->add_block), 0.5) * 1e3;
  m["block.unlock_ms_p50"] = Quantile(spans.DurationsMs(trace->unlock), 0.5);
  m["block.retired_frac"] =
      last.blocks > 0 ? static_cast<double>(last.retired) / static_cast<double>(last.blocks) : 0;
  m["block.hot_at_end"] = static_cast<double>(last.hot);
  m["proc.cpu_s"] = Quantile(cpu_s, 0.5);
  m["trace.overhead_frac"] = Quantile(traced_run_s, 0.0) / Quantile(run_s, 0.0) - 1.0;

  ReportSpans(spans, def.name, options.seed);
  return report;
}

}  // namespace perfbench
