// The traced run's instruments: per-call timers at each layer boundary,
// measured from outside the program.
//
//   workload ──timed──▶ Vfs ──▶ TimedFs ──▶ SafeFs ──▶ TimedDisk ──▶ RamDisk
//   workload ──timed──▶ SocketLayer
//
// TimedFs and TimedDisk are forwarding FileSystem / BlockDevice wrappers that
// time every call. Each layer's self time is its call time minus the time
// its callee's wrapper measured inside that call on the same thread. None of
// this exists in the untraced run: there the Vfs mounts the SafeFs directly,
// the SafeFs sits on the RamDisk, and the workloads skip their timers.
//
// The rest of the per-layer picture comes from the program's own public
// counters (io_stats, dcache_stats, journal_stats, the lock registry, the
// slab census, the metrics registry), read as deltas across the window.
#ifndef SKERN_BENCH_E2E_LAYERS_H_
#define SKERN_BENCH_E2E_LAYERS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/fs/safefs/safefs.h"
#include "src/vfs/filesystem.h"

namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

enum VfsOp { kVfsOpen, kVfsPread, kVfsPwrite, kVfsStat, kVfsClose, kVfsFsync, kVfsUnlink, kVfsOps };
enum FsOp {
  kFsOpenByPath,
  kFsReadAt,
  kFsWriteAt,
  kFsFsyncHandle,
  kFsOtherHandle,  // CloseHandle, StatHandle
  kFsPathOp,       // every path-plane call
  kFsOps
};
enum NetOp { kNetSend, kNetRecv, kNetOps };

// A thread's tally is one array of counters; these are the slots. The
// per-op groups are indexed by VfsOp, FsOp or NetOp from their base slot.
inline constexpr size_t kVfsCalls = 0;
inline constexpr size_t kVfsNs = kVfsCalls + kVfsOps;
inline constexpr size_t kVfsSelfNs = kVfsNs + kVfsOps;
inline constexpr size_t kFsCalls = kVfsSelfNs + 1;
inline constexpr size_t kFsNs = kFsCalls + kFsOps;
inline constexpr size_t kFsSelfNs = kFsNs + kFsOps;
inline constexpr size_t kDevReads = kFsSelfNs + 1;
inline constexpr size_t kDevWrites = kDevReads + 1;
inline constexpr size_t kDevFlushes = kDevWrites + 1;
inline constexpr size_t kDevNs = kDevFlushes + 1;
inline constexpr size_t kNetCalls = kDevNs + 1;
inline constexpr size_t kNetNs = kNetCalls + kNetOps;
inline constexpr size_t kTallySlots = kNetNs + kNetOps;

// Plain sums of every thread's tally.
struct TallySum {
  std::array<uint64_t, kTallySlots> slots{};

  uint64_t operator[](size_t slot) const { return slots[slot]; }
  TallySum operator-(const TallySum& base) const;
};

// Totals of every thread that has recorded a traced call so far.
TallySum SumTallies();

// Runs `call` as one traced Vfs call: its duration, and its self time
// (duration minus the TimedFs time inside it), land on this thread's tally.
template <typename Fn>
auto TimeVfs(VfsOp op, Fn&& call);
template <typename Fn>
auto TimeNet(NetOp op, Fn&& call);

// Forwarding FileSystem over a SafeFs that times every call.
class TimedFs : public skern::FileSystem {
 public:
  explicit TimedFs(std::shared_ptr<skern::FileSystem> inner) : inner_(std::move(inner)) {}

  skern::Status Create(const std::string& path) override;
  skern::Status Mkdir(const std::string& path) override;
  skern::Status Unlink(const std::string& path) override;
  skern::Status Rmdir(const std::string& path) override;
  skern::Status Write(const std::string& path, uint64_t offset, skern::ByteView data) override;
  skern::Result<skern::Bytes> Read(const std::string& path, uint64_t offset,
                                   uint64_t length) override;
  skern::Status Truncate(const std::string& path, uint64_t new_size) override;
  skern::Status Rename(const std::string& from, const std::string& to) override;
  skern::Result<skern::FileAttr> Stat(const std::string& path) override;
  skern::Result<std::vector<std::string>> Readdir(const std::string& path) override;
  skern::Status Chmod(const std::string& path, uint32_t mode) override;
  skern::Status Chown(const std::string& path, uint32_t uid, uint32_t gid) override;
  skern::Status Sync() override;
  skern::Status Fsync(const std::string& path) override;
  std::string Name() const override { return inner_->Name(); }

  bool SupportsHandleIo() const override { return inner_->SupportsHandleIo(); }
  skern::Result<skern::InodeHandle> OpenByPath(const std::string& path) override;
  void CloseHandle(skern::InodeHandle handle) override;
  skern::Result<skern::Bytes> ReadAt(skern::InodeHandle handle, uint64_t offset,
                                     uint64_t length) override;
  skern::Status WriteAt(skern::InodeHandle handle, uint64_t offset,
                        skern::ByteView data) override;
  skern::Result<size_t> WriteAtBatch(skern::InodeHandle handle, const skern::WriteSlice* slices,
                                     size_t count) override;
  skern::Result<skern::FileAttr> StatHandle(skern::InodeHandle handle) override;
  skern::Status FsyncHandle(skern::InodeHandle handle) override;

 private:
  std::shared_ptr<skern::FileSystem> inner_;
};

// Forwarding BlockDevice that counts and times every call.
class TimedDisk : public skern::BlockDevice {
 public:
  explicit TimedDisk(skern::BlockDevice& inner) : inner_(inner) {}

  skern::Status ReadBlock(uint64_t block, skern::MutableByteView out) override;
  skern::Status WriteBlock(uint64_t block, skern::ByteView data) override;
  skern::Status Flush() override;
  uint64_t BlockCount() const override { return inner_.BlockCount(); }

 private:
  skern::BlockDevice& inner_;
};

// The program's own counters, read at a window edge.
struct ProgramCounters {
  skern::SafeFsIoStats io;
  skern::DcacheStats dcache;
  skern::JournalStats journal;
  uint64_t commit_count = 0;  // span.journal.flush.ns
  uint64_t commit_ns = 0;
  uint64_t cache_fast = 0;  // span.block.append_from_block.{fast,slow}.ns counts
  uint64_t cache_slow = 0;
  uint64_t lock_blocked = 0;  // LockRegistry::TopContended totals
  uint64_t lock_wait_ns = 0;
  std::map<std::string, uint64_t> lock_wait_by_class;
  uint64_t mem_allocs = 0;  // mem::SnapshotAllCaches totals
  uint64_t mem_frees = 0;
  uint64_t mem_magazine_hits = 0;
  uint64_t mem_slab_grows = 0;
  uint64_t tcp_segments = 0;  // metrics-registry counters
  uint64_t tcp_retransmits = 0;
  uint64_t buf_bytes_copied = 0;
};

// Sums over `file_systems` (none for the net workload).
ProgramCounters ReadCounters(const std::vector<const skern::SafeFs*>& file_systems);

// What the workload did in the window, as the denominators of the ratios.
struct WindowWork {
  uint64_t ops = 0;
  uint64_t fsyncs = 0;
  uint64_t bytes_written = 0;  // payload handed to Pwrite
  uint64_t messages = 0;       // one-way net messages (two per echo)
  uint64_t message_bytes = 0;  // payload bytes of those messages
  double fsync_p50_us = 0;
};

// Every per-layer metric, named as BENCHMARK.json lists them. Layers the
// workload bypasses read 0.
std::vector<Metric> LayerMetrics(const TallySum& tally, const ProgramCounters& before,
                                 const ProgramCounters& after, const WindowWork& work);

// The `n` lock classes with the most wait per op in the window, named
// lock_wait_ns_per_op.<class>: which lock the lock-wait metric came from.
std::vector<Metric> TopLockWaits(const ProgramCounters& before, const ProgramCounters& after,
                                 uint64_t ops, size_t n);

// ---- implementation of the call timers ----

namespace internal {

// One thread's totals. Only the owning thread writes, so updates are a
// relaxed load + store; the reporting thread reads them at window edges.
struct ThreadTally {
  std::array<std::atomic<uint64_t>, kTallySlots> slots{};
  // Running totals of callee time on this thread, for self-time deltas.
  uint64_t fs_inner_ns = 0;
  uint64_t dev_inner_ns = 0;
};

ThreadTally& ThisThread();

inline void Bump(ThreadTally& t, size_t slot, uint64_t n) {
  std::atomic<uint64_t>& cell = t.slots[slot];
  cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace internal

template <typename Fn>
auto TimeVfs(VfsOp op, Fn&& call) {
  internal::ThreadTally& t = internal::ThisThread();
  const uint64_t inner0 = t.fs_inner_ns;
  const uint64_t start = NowNs();
  auto result = call();
  const uint64_t took = NowNs() - start;
  internal::Bump(t, kVfsCalls + op, 1);
  internal::Bump(t, kVfsNs + op, took);
  internal::Bump(t, kVfsSelfNs, took - (t.fs_inner_ns - inner0));
  return result;
}

template <typename Fn>
auto TimeNet(NetOp op, Fn&& call) {
  internal::ThreadTally& t = internal::ThisThread();
  const uint64_t start = NowNs();
  auto result = call();
  internal::Bump(t, kNetCalls + op, 1);
  internal::Bump(t, kNetNs + op, NowNs() - start);
  return result;
}

// The timers when tracing, a bare call otherwise.
template <typename Fn>
auto MaybeTimeVfs(bool on, VfsOp op, Fn&& call) {
  if (on) {
    return TimeVfs(op, call);
  }
  return call();
}

template <typename Fn>
auto MaybeTimeNet(bool on, NetOp op, Fn&& call) {
  if (on) {
    return TimeNet(op, call);
  }
  return call();
}

}  // namespace e2e

#endif  // SKERN_BENCH_E2E_LAYERS_H_
