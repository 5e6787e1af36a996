#include "bench/e2e/volume.h"

#include "src/fs/memfs/memfs.h"

namespace e2e {

bool Volume::Format(const std::string& at, const Geometry& geometry, bool trace) {
  mountpoint = at;
  disk = std::make_unique<skern::RamDisk>(geometry.blocks);
  skern::BlockDevice* device = disk.get();
  if (trace) {
    timed_disk = std::make_unique<TimedDisk>(*disk);
    device = timed_disk.get();
  }
  auto formatted = skern::SafeFs::Format(*device, geometry.inodes, geometry.journal_blocks);
  if (!formatted.ok()) {
    return false;
  }
  fs = *formatted;
  std::shared_ptr<skern::FileSystem> mounted = fs;
  if (trace) {
    mounted = std::make_shared<TimedFs>(fs);
  }
  vfs = std::make_unique<skern::Vfs>();
  return vfs->Mount("/", std::make_shared<skern::MemFs>()).ok() &&
         vfs->Mount(mountpoint, mounted).ok();
}

void Volume::Drop() {
  vfs.reset();
  fs.reset();
  timed_disk.reset();
  disk.reset();
}

bool Volume::CrashAndRemount() {
  if (!vfs->SyncAll().ok() || !vfs->Unmount(mountpoint).ok()) {
    return false;
  }
  fs.reset();
  disk->CrashNow(skern::CrashPersistence::kLoseAll);
  auto mounted = skern::SafeFs::Mount(*disk);
  if (!mounted.ok() || !vfs->Mount(mountpoint, *mounted).ok()) {
    return false;
  }
  fs = *mounted;
  return true;
}

}  // namespace e2e
