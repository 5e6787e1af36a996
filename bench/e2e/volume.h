// The storage world of the file workloads: one SafeFs volume on its own
// RamDisk, mounted in one Vfs (an empty MemFs at "/" plus the volume) that
// every client of the workload shares, as the threads of one application
// share its mount table and fd table.
#ifndef SKERN_BENCH_E2E_VOLUME_H_
#define SKERN_BENCH_E2E_VOLUME_H_

#include <cstdint>
#include <memory>
#include <string>

#include "bench/e2e/layers.h"
#include "src/block/block_device.h"
#include "src/fs/safefs/safefs.h"
#include "src/vfs/vfs.h"

namespace e2e {

struct Geometry {
  uint64_t blocks = 0;
  uint64_t inodes = 0;
  uint64_t journal_blocks = 0;
};

struct Volume {
  std::unique_ptr<skern::RamDisk> disk;
  std::unique_ptr<TimedDisk> timed_disk;  // traced runs only
  std::shared_ptr<skern::SafeFs> fs;
  std::string mountpoint;
  // Declared last so it goes first: the Vfs holds the file system, and
  // the file system must go before its device.
  std::unique_ptr<skern::Vfs> vfs;

  // Formats a fresh volume and mounts it at `at` in a fresh Vfs, behind
  // TimedDisk/TimedFs when tracing. False if a step failed.
  bool Format(const std::string& at, const Geometry& geometry, bool trace);

  // Tears the volume down: the Vfs, then the file system, then the device.
  void Drop();

  // Syncs, crashes the device so only flushed state survives
  // (RamDisk::CrashNow(kLoseAll)) and remounts with SafeFs::Mount, untraced.
  bool CrashAndRemount();
};

}  // namespace e2e

#endif  // SKERN_BENCH_E2E_VOLUME_H_
