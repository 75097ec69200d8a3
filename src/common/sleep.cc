#include "src/common/sleep.h"

#include <cerrno>
#include <ctime>

#include "src/common/check.h"

namespace dpack {

namespace {

timespec MicrosToTimespec(unsigned int micros) {
  timespec ts;
  ts.tv_sec = micros / 1000000u;
  ts.tv_nsec = static_cast<long>(micros % 1000000u) * 1000;
  return ts;
}

}  // namespace

void SleepFullMicros(unsigned int micros) {
  if (micros == 0) {
    return;
  }
  // nanosleep writes the unslept remainder into its second argument on EINTR, so resuming
  // with req = remainder accumulates to the full duration without reading a clock.
  timespec req = MicrosToTimespec(micros);
  while (nanosleep(&req, &req) != 0 && errno == EINTR) {
  }
}

bool WaitReady(std::span<pollfd> fds, unsigned int micros) {
  for (pollfd& fd : fds) {
    fd.revents = 0;
  }
  while (true) {
    // glibc's ppoll does not report the unslept remainder, so an interrupted wait restarts
    // with the full timeout: longer, never shorter, and still free of clock reads.
    timespec timeout = MicrosToTimespec(micros);
    int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready >= 0) {
      return ready > 0;
    }
    DPACK_CHECK_MSG(errno == EINTR, "ppoll failed with errno " << errno);
  }
}

}  // namespace dpack
