// The tenant side of the grant service's socket edge (src/service/net_transport.h): a
// strict request/reply client speaking checksum-framed ServiceMessages, plus the remote
// workload driver that replays the sim driver's exact event order over the wire.
//
// Blocking waits follow the service discipline — a request blocks on socket readiness
// (WaitReady: POLLOUT while sending, POLLIN while awaiting the reply), each wait times out
// after poll_sleep_us, and the io budget counts the timed-out waits, so a deadline is
// io_budget * poll_sleep_us of daemon silence with no clock reads and no shortening by
// EINTR. Every failure path (daemon gone, corrupt reply, budget exhausted, reply out of
// sequence) returns false with a diagnostic; the client never spins forever on a dead
// daemon.

#ifndef SRC_SERVICE_CLIENT_H_
#define SRC_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/task.h"
#include "src/service/messages.h"
#include "src/service/net_transport.h"
#include "src/sim/sim_driver.h"

namespace dpack {

struct NetClientConfig {
  size_t max_frame_bytes = 1 << 20;   // Replies beyond this are corruption, not patience.
  // The longest one wait may block (microseconds): a readiness wait on the socket, which
  // the daemon's bytes end at once, or the sleep between connect attempts.
  unsigned int poll_sleep_us = 200;
  // Timed-out waits (or connect attempts) allowed before giving up. At the default timeout
  // this is tens of seconds of daemon silence — a dead daemon, not a slow one.
  uint64_t io_budget = 100000;
};

class ServiceClient {
 public:
  explicit ServiceClient(NetClientConfig config = {});
  ~ServiceClient();

  // Connects to "unix:<path>" / "tcp:<port>" (loopback), retrying on connection-refused
  // within the io budget so a client raced against daemon startup still binds.
  bool Connect(const std::string& address, std::string* error);

  // Submits a batch of tasks arriving at virtual-time instant `now`. On success reports
  // the daemon's admission split (accepted + rejected == tasks.size()).
  bool Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
              uint64_t* rejected, std::string* error);

  // Drives one scheduling cycle at instant `now`; *granted receives the grant order.
  bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error);

  // Asks the daemon to stop serving and shut its fleet down (fire and forget: the frame is
  // flushed, there is no reply).
  bool SendShutdown(std::string* error);

  void Close();
  bool connected() const { return socket_ != nullptr && !socket_->dead(); }
  const NetCounters& counters() const { return counters_; }

 private:
  bool SendRequest(const ServiceMessage& message, std::string* error);
  // Waits (budgeted, on socket readiness) for the next frame and decodes it. Any transport
  // damage is terminal.
  bool ReceiveReply(ServiceMessage* out, std::string* error);

  NetClientConfig config_;
  std::unique_ptr<FrameSocket> socket_;
  NetCounters counters_;
  uint64_t next_seq_ = 1;
};

// What a remotely driven workload run produced; grant_trace is the byte-comparable signal
// to diff against an in-process RunOnlineSimulation of the same workload and config.
struct RemoteRunResult {
  std::vector<std::vector<TaskId>> grant_trace;
  size_t cycles_run = 0;
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // Admission-bound refusals observed by this client.
};

// Replays RunOnlineSimulation's event structure over `client`: the same cycle instants
// (CycleInstants over the same horizon), with every task submitted at its arrival instant
// before the first cycle at or after it — batched per distinct arrival time, preserving
// workload order within a batch, which is exactly the event queue's stable
// (time, priority, insertion) order. The daemon applies its block schedule up to each
// instant first, so grants come out byte-identical to the in-process run. Tasks arriving
// after the final cycle are still submitted (they affect pending counts, never grants).
bool RunRemoteWorkload(ServiceClient& client, std::vector<Task> tasks,
                       const SimConfig& config, RemoteRunResult* result, std::string* error);

}  // namespace dpack

#endif  // SRC_SERVICE_CLIENT_H_
