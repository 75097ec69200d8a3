// Near-miss patterns the raw-sleep rule must stay quiet on: this file is linted as
// src/service code and must produce zero findings.

#include <poll.h>

#include <cstdint>
#include <span>

#include "src/common/sleep.h"

namespace dpack {

// A comment naming usleep(50), poll(&p, 1, 0) and std::this_thread::sleep_for() is not a
// use, and neither is a string literal.
inline const char* kDocs = "usleep(50) and ppoll() are banned outside src/common/sleep.*";

struct Fleet {
  bool Poll(int w) { return w >= 0; }  // A member named like the syscall, capitalized.
  bool PollOnce() { return true; }     // A longer identifier containing "Poll".
  bool (*poll)(int) = nullptr;         // A lowercase member, reached only as a member call.
};

inline bool Drive(Fleet& fleet, Fleet* remote, int fd) {
  bool moved = fleet.PollOnce() && fleet.Poll(0) && fleet.poll(1) && remote->poll(2);
  for (uint64_t poll = 0; poll < 3; ++poll) {  // A variable named poll is not a call.
    SleepFullMicros(50);                       // The sanctioned helpers.
  }
  pollfd p = {fd, POLLIN, 0};
  return moved && WaitReady(std::span<pollfd>(&p, 1), 50);
}

}  // namespace dpack
