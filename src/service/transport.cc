#include "src/service/transport.h"

#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <new>
#include <utility>

#include "src/common/check.h"
#include "src/common/sleep.h"

namespace dpack {

namespace {

// Region layout: one cache-line-aligned control block, then the two rings back to back.
// mmap returns page-aligned memory, so offset 0 satisfies the control block's alignment and
// the ring offsets only need to keep the 64-byte ring headers aligned.
constexpr size_t kControlBytes = (sizeof(WorkerControlBlock) + 63) / 64 * 64;

size_t RegionBytes(const TransportConfig& config) {
  return kControlBytes + 2 * config.ring_bytes;
}

char* ToWorkerBase(void* region) { return static_cast<char*>(region) + kControlBytes; }

char* FromWorkerBase(void* region, const TransportConfig& config) {
  return ToWorkerBase(region) + config.ring_bytes;
}

// True once this child has been reparented — its daemon is gone, so every blocking wait
// must end rather than spin orphaned. getppid is a pure process-tree read, not a clock.
bool DaemonGone() { return getppid() == 1; }

int MakeDoorbell() {
  int fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  DPACK_CHECK_MSG(fd >= 0, "eventfd failed with errno " << errno);
  return fd;
}

// Adds one to the doorbell's counter, waking a consumer blocked on it. The counter cannot
// saturate (it would take 2^64 rings between two clears), so only EINTR needs handling.
void RingDoorbell(int fd) {
  const uint64_t one = 1;
  while (write(fd, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

// Resets the doorbell's counter to zero. EAGAIN means it was already clear.
void ClearDoorbell(int fd) {
  uint64_t count = 0;
  while (read(fd, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
}

// Blocks until one of `bells` (POLLIN on doorbells) rings or `micros` pass, then clears
// the ones that rang. Returns false on a timeout.
bool AwaitDoorbells(std::span<pollfd> bells, unsigned int micros) {
  if (!WaitReady(bells, micros)) {
    return false;
  }
  for (const pollfd& bell : bells) {
    if (bell.revents != 0) {
      ClearDoorbell(bell.fd);
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerEndpoint (child side)
// ---------------------------------------------------------------------------

WorkerEndpoint::WorkerEndpoint(size_t index, WorkerControlBlock* control, ShmRing in,
                               ShmRing out, int in_bell, int out_bell,
                               unsigned int poll_sleep_us)
    : index_(index),
      control_(control),
      in_(in),
      out_(out),
      in_bell_(in_bell),
      out_bell_(out_bell),
      poll_sleep_us_(poll_sleep_us) {}

bool WorkerEndpoint::Receive(ServiceMessage* out) {
  std::string frame;
  while (true) {
    control_->heartbeat.fetch_add(1, std::memory_order_relaxed);
    RingPopStatus status = in_.TryPop(&frame);
    if (status == RingPopStatus::kOk) {
      break;
    }
    if (status == RingPopStatus::kCorrupt) {
      return false;
    }
    if (DaemonGone()) {
      return false;
    }
    pollfd bell = {in_bell_, POLLIN, 0};
    AwaitDoorbells({&bell, 1}, poll_sleep_us_);
  }
  std::string error;
  return DecodeMessage(frame, out, &error);
}

bool WorkerEndpoint::Send(const ServiceMessage& message) {
  std::string frame = EncodeMessage(message);
  while (!out_.TryPush(frame)) {
    if (DaemonGone()) {
      return false;
    }
    control_->heartbeat.fetch_add(1, std::memory_order_relaxed);
    // A full ring has no doorbell to wait on; backpressure is rare (ring_stalls stays 0 on
    // every benchmarked workload), so a bounded sleep is enough.
    SleepFullMicros(poll_sleep_us_);
  }
  RingDoorbell(out_bell_);
  return true;
}

void WorkerEndpoint::SetLifeState(WorkerLifeState state) {
  control_->life_state.store(static_cast<uint32_t>(state), std::memory_order_release);
}

// ---------------------------------------------------------------------------
// ServiceTransport (daemon side)
// ---------------------------------------------------------------------------

ServiceTransport::ServiceTransport(TransportConfig config, WorkerBody body)
    : config_(config), body_(std::move(body)) {
  DPACK_CHECK(config_.num_workers >= 1);
  DPACK_CHECK(config_.ring_bytes >= ShmRing::MinBytes());
  DPACK_CHECK(config_.stall_budget >= 1);
  DPACK_CHECK(body_ != nullptr);
}

ServiceTransport::~ServiceTransport() {
  for (size_t w = 0; w < slots_.size(); ++w) {
    if (slots_[w].alive) {
      KillChild(slots_[w].pid, SIGKILL);
      WaitChild(slots_[w].pid);
      slots_[w].alive = false;
    }
  }
  for (Slot& slot : slots_) {
    close(slot.to_worker_bell);
    close(slot.from_worker_bell);
  }
}

void ServiceTransport::InitSlotMemory(Slot& slot) {
  new (slot.region.data()) WorkerControlBlock();
  slot.control = static_cast<WorkerControlBlock*>(slot.region.data());
  slot.control->heartbeat.store(0, std::memory_order_relaxed);
  slot.control->life_state.store(static_cast<uint32_t>(WorkerLifeState::kStarting),
                                 std::memory_order_relaxed);
  slot.to_worker = std::make_unique<ShmRing>(ToWorkerBase(slot.region.data()),
                                             config_.ring_bytes, /*initialize=*/true);
  slot.from_worker = std::make_unique<ShmRing>(FromWorkerBase(slot.region.data(), config_),
                                               config_.ring_bytes, /*initialize=*/true);
}

void ServiceTransport::ForkWorker(size_t w) {
  Slot& slot = slots_[w];
  // Build everything the child needs before forking; the child attaches fresh ring handles
  // over the same (inherited, same-address) memory, with the push/pop directions flipped.
  void* region = slot.region.data();
  int in_bell = slot.to_worker_bell;
  int out_bell = slot.from_worker_bell;
  const TransportConfig config = config_;
  WorkerBody body = body_;
  slot.pid = SpawnChild([w, region, in_bell, out_bell, config, body]() {
    auto* control = static_cast<WorkerControlBlock*>(region);
    ShmRing in(ToWorkerBase(region), config.ring_bytes, /*initialize=*/false);
    ShmRing out(FromWorkerBase(region, config), config.ring_bytes, /*initialize=*/false);
    WorkerEndpoint endpoint(w, control, in, out, in_bell, out_bell, config.poll_sleep_us);
    return body(endpoint);
  });
  slot.alive = true;
}

void ServiceTransport::Start() {
  DPACK_CHECK_MSG(!started_, "ServiceTransport::Start called twice");
  started_ = true;
  slots_.resize(config_.num_workers);
  // Map and initialize every region, and create every doorbell, BEFORE the first fork:
  // each child inherits all mappings at the same addresses and all doorbell descriptors,
  // so respawned workers can reuse their slot unchanged.
  for (Slot& slot : slots_) {
    slot.region = ShmRegion(RegionBytes(config_));
    InitSlotMemory(slot);
    slot.to_worker_bell = MakeDoorbell();
    slot.from_worker_bell = MakeDoorbell();
  }
  for (size_t w = 0; w < slots_.size(); ++w) {
    ForkWorker(w);
  }
}

bool ServiceTransport::alive(size_t w) const {
  DPACK_CHECK(w < slots_.size());
  return slots_[w].alive;
}

pid_t ServiceTransport::pid(size_t w) const {
  DPACK_CHECK(w < slots_.size());
  return slots_[w].pid;
}

uint64_t ServiceTransport::heartbeat(size_t w) const {
  DPACK_CHECK(w < slots_.size());
  return slots_[w].control->heartbeat.load(std::memory_order_relaxed);
}

WorkerLifeState ServiceTransport::life_state(size_t w) const {
  DPACK_CHECK(w < slots_.size());
  return static_cast<WorkerLifeState>(
      slots_[w].control->life_state.load(std::memory_order_acquire));
}

bool ServiceTransport::Send(size_t w, const ServiceMessage& message) {
  DPACK_CHECK(w < slots_.size());
  Slot& slot = slots_[w];
  if (!slot.alive) {
    return false;
  }
  std::string frame = EncodeMessage(message);
  DPACK_CHECK_MSG(frame.size() + 16 <= config_.ring_bytes,
                  "service message larger than a whole ring; raise ring_bytes");
  uint64_t stalls = 0;
  while (!slot.to_worker->TryPush(frame)) {
    ++counters_.ring_stalls;
    if (Poll(w) != ChildState::kRunning) {
      return false;
    }
    ++stalls;
    DPACK_CHECK_MSG(stalls < config_.stall_budget,
                    "worker " << w << " stopped draining its ring (stall budget "
                              << config_.stall_budget << " exhausted)");
    // A full ring has no doorbell to wait on; backpressure is rare (ring_stalls stays 0 on
    // every benchmarked workload), so a bounded sleep is enough.
    SleepFullMicros(config_.poll_sleep_us);
  }
  RingDoorbell(slot.to_worker_bell);
  ++counters_.messages_sent;
  counters_.bytes_sent += frame.size();
  return true;
}

RingPopStatus ServiceTransport::TryReceive(size_t w, ServiceMessage* out,
                                           std::string* error) {
  DPACK_CHECK(w < slots_.size());
  std::string frame;
  RingPopStatus status = slots_[w].from_worker->TryPop(&frame);
  if (status != RingPopStatus::kOk) {
    return status;
  }
  ++counters_.messages_received;
  counters_.bytes_received += frame.size();
  if (!DecodeMessage(frame, out, error)) {
    // A complete, checksum-clean frame that does not decode is a framing bug or a hostile
    // writer — same severity as ring corruption for the caller.
    return RingPopStatus::kCorrupt;
  }
  return RingPopStatus::kOk;
}

bool ServiceTransport::WaitForFrames(std::span<const size_t> workers) {
  std::vector<pollfd> bells;
  bells.reserve(workers.size());
  for (size_t w : workers) {
    DPACK_CHECK(w < slots_.size());
    bells.push_back({slots_[w].from_worker_bell, POLLIN, 0});
  }
  return AwaitDoorbells(bells, config_.poll_sleep_us);
}

ChildState ServiceTransport::Poll(size_t w) {
  DPACK_CHECK(w < slots_.size());
  Slot& slot = slots_[w];
  if (!slot.alive) {
    return ChildState::kExited;
  }
  ChildStatus status = PollChild(slot.pid);
  if (status.state != ChildState::kRunning) {
    slot.alive = false;  // Reaped by PollChild; never poll this pid again.
  }
  return status.state;
}

void ServiceTransport::Kill(size_t w, int signal) {
  DPACK_CHECK(w < slots_.size());
  Slot& slot = slots_[w];
  if (!slot.alive) {
    return;
  }
  KillChild(slot.pid, signal);
  WaitChild(slot.pid);
  slot.alive = false;
}

void ServiceTransport::ResetRings(size_t w) {
  DPACK_CHECK(w < slots_.size());
  Slot& slot = slots_[w];
  DPACK_CHECK_MSG(!slot.alive, "ResetRings on a live worker would race its ring cursors");
  InitSlotMemory(slot);
  ClearDoorbell(slot.to_worker_bell);
  ClearDoorbell(slot.from_worker_bell);
}

void ServiceTransport::Respawn(size_t w) {
  DPACK_CHECK(w < slots_.size());
  DPACK_CHECK_MSG(!slots_[w].alive, "Respawn requires a dead slot");
  ForkWorker(w);
  ++counters_.respawns;
}

void ServiceTransport::ShutdownAll() {
  for (size_t w = 0; w < slots_.size(); ++w) {
    if (slots_[w].alive) {
      Send(w, ShutdownMsg{});
    }
  }
  for (size_t w = 0; w < slots_.size(); ++w) {
    Slot& slot = slots_[w];
    uint64_t polls = 0;
    while (slot.alive && Poll(w) == ChildState::kRunning) {
      if (++polls >= config_.stall_budget) {
        Kill(w, SIGKILL);
        break;
      }
      // Process exit rings no doorbell, and shutdown is off the round-trip path.
      SleepFullMicros(config_.poll_sleep_us);
    }
  }
}

}  // namespace dpack
