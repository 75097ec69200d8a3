// Shared-memory IPC primitives for the multi-process grant service (src/service/):
// an anonymous MAP_SHARED region created by the daemon *before* forking its workers, a
// bounded SPSC byte ring carrying checksum-framed messages across the process boundary, and
// a per-worker control block for heartbeat/liveness signalling.
//
// Crash safety is by construction, not recovery code: a producer publishes its write cursor
// only after the whole frame is in place, and a consumer advances its read cursor only after
// the whole payload is copied out and its checksum verified. A process killed (SIGKILL) at
// any instant therefore leaves the ring in a state where every visible frame is complete —
// the surviving side either sees the message entirely or never sees it.
//
// Frames are [u64 payload length][u64 FNV-1a checksum][payload bytes] (little-endian, the
// wire.h discipline). A frame whose length exceeds what the producer published, or whose
// checksum does not match the payload, is reported as corruption — the same
// reject-don't-trust contract as the checkpoint codec (tests/service/shm_ring_test.cc
// mirrors checkpoint_test.cc's truncation/bit-flip suite).
//
// The ring makes no syscalls on push/pop (pure shared-memory atomics); blocking waits are
// the caller's loop (see src/service/transport.h, which owns the deadlines and counters).

#ifndef SRC_COMMON_SHM_RING_H_
#define SRC_COMMON_SHM_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dpack {

// Anonymous MAP_SHARED mapping, created while the process is still single-threaded and
// inherited by every subsequently forked child at the same address. Move-only RAII.
class ShmRegion {
 public:
  ShmRegion() = default;
  // Maps `bytes` of zero-initialized shared memory; DPACK_CHECKs on mmap failure.
  explicit ShmRegion(size_t bytes);
  ~ShmRegion();

  ShmRegion(ShmRegion&& other) noexcept;
  ShmRegion& operator=(ShmRegion&& other) noexcept;
  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;

  void* data() const { return mem_; }
  size_t size() const { return bytes_; }
  bool valid() const { return mem_ != nullptr; }

 private:
  void* mem_ = nullptr;
  size_t bytes_ = 0;
};

enum class RingPopStatus {
  kOk,       // One message popped into *out.
  kEmpty,    // No published frame.
  kCorrupt,  // Framing or checksum violation; the ring is poisoned (see TryPop).
};

// Single-producer single-consumer byte ring over caller-provided memory (a slice of an
// ShmRegion, or plain heap memory in unit tests). Exactly one process pushes and exactly
// one process pops; the two sides may be (and in the service are) different processes.
class ShmRing {
 public:
  // Minimum usable memory: the cursor header plus room for at least one small frame.
  static size_t MinBytes();

  // Lays out a ring in `mem` (`initialize` = true; call once, pre-fork) or attaches to an
  // already-initialized ring (`initialize` = false; the child side after fork, or a second
  // handle in-process). Attach validates the stored capacity against `bytes`.
  ShmRing(void* mem, size_t bytes, bool initialize);

  // Appends one frame. Returns false when the ring lacks space (caller decides whether to
  // spin, count a stall, or fail); the ring is unchanged in that case.
  bool TryPush(std::string_view payload);

  // Pops the next frame into *out. On kCorrupt the cursors are left untouched so the
  // damage stays observable (every subsequent pop reports corruption too — a poisoned
  // transport, never silently-resynchronized garbage).
  RingPopStatus TryPop(std::string* out);

  size_t capacity() const { return cap_; }
  // Bytes currently published and unconsumed (racy across processes; exact when quiescent).
  size_t used() const;

  // Raw buffer access for corruption-injection tests (the buffer begins at the returned
  // pointer and wraps modulo capacity()).
  char* raw_buffer() { return buf_; }
  uint64_t head_cursor() const;
  uint64_t tail_cursor() const;

 private:
  struct Header {
    // Producer-owned write cursor and consumer-owned read cursor, both monotonically
    // increasing byte counts (never wrapped; buffer offsets are cursor % capacity).
    alignas(64) std::atomic<uint64_t> tail;
    alignas(64) std::atomic<uint64_t> head;
    alignas(64) uint64_t capacity;
  };
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "shared-memory cursors must be lock-free across processes");

  void CopyIn(uint64_t cursor, const char* src, size_t n);
  void CopyOut(uint64_t cursor, char* dst, size_t n) const;

  Header* header_ = nullptr;
  char* buf_ = nullptr;
  size_t cap_ = 0;
};

// Worker lifecycle as observed through shared memory (daemon side reads, worker writes).
enum class WorkerLifeState : uint32_t {
  kStarting = 0,  // Forked, not yet bound.
  kReady = 1,     // Bound and serving score rounds.
  kExited = 2,    // Clean shutdown (a crashed worker never reaches this).
};

// Per-worker shared control block: the heartbeat counter advances on every worker wake-up
// and every timed-out wait, so a stalled counter with a live pid is a hung worker (distinct
// from a dead one, which waitpid reports). Lives in the same pre-fork ShmRegion as the
// rings.
struct WorkerControlBlock {
  alignas(64) std::atomic<uint64_t> heartbeat;
  alignas(64) std::atomic<uint32_t> life_state;
};

}  // namespace dpack

#endif  // SRC_COMMON_SHM_RING_H_
