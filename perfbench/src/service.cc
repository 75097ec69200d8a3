#include "perfbench/src/service.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/replay_common.h"
#include "src/common/subprocess.h"
#include "src/core/scheduler.h"
#include "src/service/client.h"
#include "src/service/grant_service.h"
#include "src/service/net_transport.h"
#include "src/sim/sim_driver.h"

namespace perfbench {

namespace {

using dpack::Task;
using dpack::TaskId;

// What the daemon reports back through a pipe when it exits (plain data, written whole).
struct DaemonReport {
  uint64_t served_ok = 0;  // ServeUntilShutdown ended on a client Shutdown.
  uint64_t cycles = 0;
  double schedule_mean_s = 0.0;  // GrantService metrics().cycle_runtime_seconds() mean.
  uint64_t submitted = 0;
  uint64_t allocated = 0;
  uint64_t evicted = 0;
  uint64_t pending = 0;
  uint64_t budget_violations = 0;
  dpack::ServiceCounters counters;
};

// A forked daemon and the tenant connection to it.
struct Daemon {
  pid_t pid = -1;
  std::string socket_path;
  int report_fd = -1;
  std::unique_ptr<dpack::ServiceClient> client;
};

int ServeDaemon(const dpack::SimConfig& sim, const std::string& socket_path, pid_t parent,
                int report_fd) {
  // Die with the benchmark process, whatever ends it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) {
    return 4;
  }
  DaemonReport report;
  dpack::BlockManager blocks(sim.grid, sim.eps_g, sim.delta_g);
  {
    dpack::GrantServiceConfig config;
    config.period = sim.period;
    config.unlock_steps = sim.unlock_steps;
    config.fair_share_n = sim.fair_share_n;
    dpack::GrantService service(dpack::GreedyMetric::kDpack, &blocks, config);
    std::vector<double> schedule = dpack::BlockArrivalSchedule(sim);
    size_t next_block = 0;
    dpack::NetAddress address;
    address.is_unix = true;
    address.path = socket_path;
    dpack::NetServiceFront front(&service, &blocks, sim.grid,
                                 std::make_unique<dpack::NetListener>(address),
                                 dpack::NetFrontConfig{},
                                 [&blocks, &schedule, &next_block](double now) {
                                   while (next_block < schedule.size() &&
                                          schedule[next_block] <= now) {
                                     blocks.AddBlock(schedule[next_block]);
                                     ++next_block;
                                   }
                                 });
    report.served_ok = front.ServeUntilShutdown() ? 1 : 0;
    const dpack::AllocationMetrics& metrics = service.metrics();
    report.cycles = metrics.cycle_runtime_seconds().count();
    report.schedule_mean_s = metrics.cycle_runtime_seconds().mean();
    report.submitted = metrics.submitted();
    report.allocated = metrics.allocated();
    report.evicted = metrics.evicted();
    report.pending = service.pending_count();
    report.counters = service.counters();
  }  // The service shuts its worker fleet down and reaps it here.
  report.budget_violations = CountBudgetViolations(blocks);
  ssize_t wrote = write(report_fd, &report, sizeof(report));
  close(report_fd);
  return wrote == static_cast<ssize_t>(sizeof(report)) && report.served_ok == 1 ? 0 : 3;
}

// Forks the daemon and connects the tenant client (the timed bring-up). Returns false with
// a diagnostic if the client cannot connect.
bool BringUp(const dpack::SimConfig& sim, const std::string& socket_path, Daemon* daemon,
             std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::fflush(stdout);
  pid_t parent = getpid();
  int write_fd = fds[1];
  int read_fd = fds[0];
  daemon->socket_path = socket_path;
  daemon->pid = dpack::SpawnChild([&sim, &socket_path, parent, write_fd, read_fd]() {
    close(read_fd);
    return ServeDaemon(sim, socket_path, parent, write_fd);
  });
  close(write_fd);
  daemon->report_fd = read_fd;
  daemon->client = std::make_unique<dpack::ServiceClient>();
  return daemon->client->Connect("unix:" + socket_path, error);
}

// Shuts the daemon down (or kills it after a failure), reaps it, and reads its report.
bool TearDown(Daemon* daemon, bool kill, DaemonReport* report, struct rusage* usage,
              std::string* error) {
  bool ok = true;
  if (!kill && daemon->client != nullptr && daemon->client->connected()) {
    ok = daemon->client->SendShutdown(error);
  }
  if (daemon->client != nullptr) {
    daemon->client->Close();
  }
  if (kill || !ok) {
    dpack::KillChild(daemon->pid, SIGKILL);
  }
  int status = 0;
  while (wait4(daemon->pid, &status, 0, usage) < 0 && errno == EINTR) {
  }
  size_t got = 0;
  char* bytes = reinterpret_cast<char*>(report);
  while (got < sizeof(*report)) {
    ssize_t n = read(daemon->report_fd, bytes + got, sizeof(*report) - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  close(daemon->report_fd);
  unlink(daemon->socket_path.c_str());  // Already gone unless the daemon was killed.
  daemon->pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || got != sizeof(*report)) {
    if (error->empty()) {
      *error = "daemon exited uncleanly (status " + std::to_string(status) + ")";
    }
    return false;
  }
  return ok;
}

struct Replay {
  int64_t wall_ns = 0;
  double cpu_s = 0.0;  // This process plus the daemon and its reaped workers.
  std::vector<double> cycle_ms;
  std::vector<double> submit_ms;
  std::vector<double> submit_to_grant_ms;
  GrantTrace grants;
  LatencySummary summary;
  bool same_grants = true;  // Granted exactly what the run's first replay did.
  uint64_t calls = 0;
  uint64_t failed_calls = 0;
  uint64_t submitted = 0;
  dpack::NetCounters client;
  DaemonReport daemon;
  struct rusage daemon_usage {};
  bool clean = false;
  std::string error;
};

// Replays `tasks` over the socket with RunRemoteWorkload's event structure — every task
// submitted at its instant (one Submit per distinct arrival instant) before the first
// cycle at or after it, then RunCycle — timing each call. `spans` non-null records a span
// per call.
Replay ReplayOverSocket(const dpack::ScenarioWorkload& workload, Daemon* daemon,
                        SpanRecorder* spans) {
  const dpack::SimConfig& sim = workload.sim;
  const std::vector<Task>& tasks = workload.tasks;
  std::vector<double> block_times = dpack::BlockArrivalSchedule(sim);
  double horizon = dpack::SimulationHorizon(sim, tasks, block_times);
  double next_after_horizon = 0.0;
  std::vector<double> instants = dpack::CycleInstants(sim, horizon, &next_after_horizon);
  uint32_t submit_span = spans ? spans->Intern("service.Submit") : 0;
  uint32_t cycle_span = spans ? spans->Intern("service.RunCycle") : 0;
  uint32_t cycle = 0;

  Replay out;
  std::vector<int64_t> submit_start(tasks.size(), 0);
  dpack::ServiceClient& client = *daemon->client;
  struct rusage usage_start = SelfUsage();
  int64_t start = NowNs();
  size_t next_task = 0;
  auto submit_through = [&](double cutoff) {
    while (next_task < tasks.size() && tasks[next_task].arrival_time <= cutoff) {
      double instant = tasks[next_task].arrival_time;
      std::vector<Task> batch;
      while (next_task < tasks.size() && tasks[next_task].arrival_time == instant) {
        batch.push_back(tasks[next_task]);
        ++next_task;
      }
      uint64_t accepted = 0, rejected = 0;
      ScopedSpan span(spans, submit_span, cycle);
      int64_t t0 = NowNs();
      bool ok = client.Submit(instant, batch, &accepted, &rejected, &out.error);
      int64_t t1 = NowNs();
      out.submit_ms.push_back(NsToMs(t1 - t0));
      for (const Task& task : batch) {
        submit_start[static_cast<size_t>(task.id)] = t0;
      }
      ++out.calls;
      out.submitted += accepted;
      if (!ok || rejected > 0) {
        ++out.failed_calls;
        return false;
      }
    }
    return true;
  };
  bool ok = true;
  for (size_t c = 0; c < instants.size() && ok; ++c) {
    cycle = static_cast<uint32_t>(c);
    ok = submit_through(instants[c]);
    if (!ok) {
      break;
    }
    std::vector<TaskId> granted;
    ScopedSpan span(spans, cycle_span, cycle);
    int64_t t0 = NowNs();
    ok = client.RunCycle(instants[c], &granted, &out.error);
    int64_t t1 = NowNs();
    out.cycle_ms.push_back(NsToMs(t1 - t0));
    ++out.calls;
    if (!ok) {
      ++out.failed_calls;
      break;
    }
    for (TaskId id : granted) {
      out.submit_to_grant_ms.push_back(NsToMs(t1 - submit_start[static_cast<size_t>(id)]));
    }
    out.grants.push_back(std::move(granted));
  }
  cycle = static_cast<uint32_t>(instants.size());
  ok = ok && submit_through(std::numeric_limits<double>::infinity());
  out.wall_ns = NowNs() - start;
  out.client = client.counters();
  out.clean = TearDown(daemon, !ok, &out.daemon, &out.daemon_usage, &out.error);
  out.cpu_s = CpuSeconds(SelfUsage()) - CpuSeconds(usage_start) + CpuSeconds(out.daemon_usage);
  return out;
}

void CheckReplay(const Replay& replay, size_t task_count, const std::string& label,
                 RunReport* report) {
  report->attempted += replay.calls;
  report->failed += replay.failed_calls;
  if (replay.failed_calls > 0) {
    report->failures.push_back(label + ": a client call failed: " + replay.error);
  }
  const DaemonReport& d = replay.daemon;
  report->Check(replay.clean, label + ": daemon did not shut down cleanly: " + replay.error);
  report->Check(replay.same_grants, label + ": granted differently from replay 0");
  report->Check(d.budget_violations == 0,
                label + ": " + std::to_string(d.budget_violations) +
                    " daemon blocks over budget at every order");
  report->Check(d.submitted == task_count && replay.submitted == task_count &&
                    d.allocated + d.evicted + d.pending == d.submitted,
                label + ": granted + evicted + pending != submitted in the daemon");
}

}  // namespace

RunReport RunServiceWorkload(const WorkloadDef& def, const Options& options) {
  RunReport report;
  dpack::ScenarioSpec spec = def.spec(options.seed, options.scale);
  std::error_code ignored;
  std::filesystem::create_directories(".bench_build", ignored);
  int socket_index = 0;
  auto socket_path = [&socket_index] {
    // Relative, so the path stays short and inside the working directory.
    return ".bench_build/perfbench_" + std::to_string(getpid()) + "_" +
           std::to_string(socket_index++) + ".sock";
  };

  // The run goes in rounds until --seconds is spent. Each round sets up (generates the
  // workload and brings up a daemon: fork, listen, connect) and replays over that daemon;
  // the traced run adds a traced replay over a second daemon. Set-ups spread over the whole
  // run, so setup_s, their median, does not rest on one moment of the host's load.
  std::vector<double> setup_s, generate_s;
  dpack::ScenarioWorkload workload;
  Daemon daemon;
  std::string error;
  std::vector<Replay> plain;
  std::vector<Replay> traced;
  std::unique_ptr<SpanRecorder> spans;
  GrantTrace first_grants;
  FastestSamples fastest;
  double self_peak_mb = 0.0;
  int64_t start = NowNs();
  int64_t last_ns = 0;
  do {
    int64_t round_start = NowNs();
    for (int leg = 0; leg < (options.trace ? 2 : 1); ++leg) {
      int64_t t0 = NowNs();
      if (leg == 0) {
        workload = GenerateWorkload(spec);
      }
      int64_t t1 = NowNs();
      bool up = BringUp(workload.sim, socket_path(), &daemon, &error);
      int64_t t2 = NowNs();
      report.Check(up, "daemon bring-up failed: " + error);
      if (!up) {
        DaemonReport unused;
        struct rusage usage {};
        TearDown(&daemon, true, &unused, &usage, &error);
        break;
      }
      if (leg == 0) {
        generate_s.push_back(NsToS(t1 - t0));
        setup_s.push_back(NsToS(t2 - t0));
        plain.push_back(ReplayOverSocket(workload, &daemon, nullptr));
        Summarize(plain.back(), &first_grants, &fastest);
        if (plain.size() == 1) {
          self_peak_mb = PeakRssMb(SelfUsage());  // One replay's peak, as in-process.
        }
      } else {
        spans = std::make_unique<SpanRecorder>();
        traced.push_back(ReplayOverSocket(workload, &daemon, spans.get()));
        Summarize(traced.back(), &first_grants, nullptr);
      }
    }
    last_ns = NowNs() - round_start;
  } while (report.failed == 0 && AnotherReplayFits(start, last_ns, options.seconds));
  if (plain.empty() || (options.trace && traced.empty())) {
    return report;
  }
  size_t task_count = workload.tasks.size();
  PrintSetupSamples(setup_s);
  double daemon_peak_mb = PeakRssMb(plain[0].daemon_usage);

  // Output checks against an in-process simulation of the same workload.
  dpack::SimConfig sim = workload.sim;
  sim.record_grant_trace = true;
  dpack::SimResult reference = dpack::RunOnlineSimulation(
      dpack::CreateScheduler(dpack::SchedulerKind::kDpack), workload.tasks, sim);
  for (size_t r = 0; r < plain.size(); ++r) {
    CheckReplay(plain[r], task_count, "replay " + std::to_string(r), &report);
  }
  for (size_t r = 0; r < traced.size(); ++r) {
    CheckReplay(traced[r], task_count, "traced replay " + std::to_string(r), &report);
  }
  bool same = first_grants == reference.grant_trace;
  report.Check(same, "remote grant trace differs from the in-process simulation");
  std::printf("check: remote grant trace vs in-process simulation (%zu cycles): %s\n",
              reference.grant_trace.size(), same ? "equal" : "DIFFERENT");

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
  std::printf("memory: tenant peak %.1f MiB, daemon+workers peak %.1f MiB\n", self_peak_mb,
              daemon_peak_mb);
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
    m["tasks_granted"] = static_cast<double>(plain[0].daemon.allocated);
    m["peak_rss_mb"] = std::max(self_peak_mb, daemon_peak_mb);
    return report;
  }

  const Replay& last = traced.back();
  const DaemonReport& d = last.daemon;
  double cycles = static_cast<double>(last.summary.cycles);
  double ops = static_cast<double>(last.calls);
  std::vector<double> traced_run_s;
  for (const Replay& replay : traced) {
    traced_run_s.push_back(NsToS(replay.wall_ns));
  }
  double daemon_ms = d.schedule_mean_s * 1e3;
  m["workload.generate_s"] = Quantile(generate_s, 0.5);
  m["service.daemon_schedule_ms_mean"] = daemon_ms;
  m["service.cycle_wait_ms_mean"] = last.summary.cycle_mean - daemon_ms;
  m["service.messages_per_cycle"] =
      static_cast<double>(d.counters.messages_sent + d.counters.messages_received) / cycles;
  m["service.bytes_per_cycle"] =
      static_cast<double>(d.counters.bytes_sent + d.counters.bytes_received) / cycles;
  m["service.score_rounds_per_cycle"] = static_cast<double>(d.counters.score_rounds) / cycles;
  m["service.ring_stalls_per_cycle"] = static_cast<double>(d.counters.ring_stalls) / cycles;
  m["service.net_frames_per_op"] =
      static_cast<double>(last.client.frames_sent + last.client.frames_received) / ops;
  m["service.net_bytes_per_op"] =
      static_cast<double>(last.client.bytes_sent + last.client.bytes_received) / ops;
  m["service.daemon_cpu_ms_per_cycle"] = CpuSeconds(last.daemon_usage) * 1e3 / cycles;
  m["service.daemon_peak_rss_mb"] = daemon_peak_mb;
  m["core.grants_per_cycle"] = static_cast<double>(d.allocated) / cycles;
  m["core.evictions_per_cycle"] = static_cast<double>(d.evicted) / cycles;
  m["proc.cpu_s"] = Quantile(cpu_s, 0.5);
  m["trace.overhead_frac"] = Quantile(traced_run_s, 0.0) / Quantile(run_s, 0.0) - 1.0;

  ReportSpans(*spans, def.name, options.seed);
  return report;
}

}  // namespace perfbench
