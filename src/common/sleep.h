// The service transports' two wait primitives — the only home of raw sleep and poll calls
// in src/ (scripts/dpack_lint.py raw-sleep).
//
// Every blocking wait in the service is an iteration budget: at most `budget` waits of at
// most `poll_sleep_us` each, so the deadline is budget * poll_sleep_us of real time with no
// clock read on the scheduling path. Waits on the request/reply path use WaitReady: they
// block until the peer signals (socket readiness, a ring doorbell) and spend one unit of
// budget only when the whole timeout passes without a signal. The few waits with nothing
// to block on (a full ring, a connect refused, a child not yet reaped) use SleepFullMicros.
//
// Both keep the budget arithmetic honest under signals. `usleep` and `poll` return early on
// EINTR (any signal with a handler), which would silently shrink a deadline by however
// often signals land. SleepFullMicros resumes `nanosleep` with the kernel-reported
// remaining time; WaitReady restarts an interrupted wait with its full timeout, so a signal
// can lengthen one wait but never shorten it.

#ifndef SRC_COMMON_SLEEP_H_
#define SRC_COMMON_SLEEP_H_

#include <poll.h>

#include <span>

namespace dpack {

// Sleeps for the full `micros` microseconds, resuming across EINTR. A no-op for 0.
void SleepFullMicros(unsigned int micros);

// Blocks until at least one of `fds` reports an event it asked for (or POLLERR/POLLHUP/
// POLLNVAL), or `micros` microseconds pass. Returns false on timeout, with every revents
// zero. EINTR restarts the wait. `micros` = 0 only checks readiness, without blocking.
// DPACK_CHECKs on any other ppoll failure (a bad fd is a bug, not a peer event).
bool WaitReady(std::span<pollfd> fds, unsigned int micros);

}  // namespace dpack

#endif  // SRC_COMMON_SLEEP_H_
