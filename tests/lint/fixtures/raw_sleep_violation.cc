// Seeded raw-sleep violation: raw sleeps and readiness polls outside src/common/sleep.*
// return early on EINTR (or hide a budgeted wait from review) and so can silently shorten
// a liveness deadline. The lint self-test asserts the rule fires on every call form here.

#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <thread>

void WaitForPeer(int fd) {
  usleep(50);  // raw-sleep
  sleep(1);    // raw-sleep
  struct timespec ts = {0, 50000};
  nanosleep(&ts, nullptr);                                                 // raw-sleep
  clock_nanosleep(CLOCK_MONOTONIC, 0, &ts, nullptr);                       // raw-sleep
  std::this_thread::sleep_for(std::chrono::microseconds(50));              // raw-sleep
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point{});  // raw-sleep
  struct pollfd p = {fd, POLLIN, 0};
  poll(&p, 1, 1);              // raw-sleep
  ::poll(&p, 1, 1);            // raw-sleep
  ppoll(&p, 1, &ts, nullptr);  // raw-sleep
}
