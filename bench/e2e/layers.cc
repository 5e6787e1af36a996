#include "bench/e2e/layers.h"

#include <algorithm>
#include <deque>
#include <mutex>

#include "src/mem/slab.h"
#include "src/obs/metrics.h"
#include "src/sync/lock_registry.h"

namespace e2e {
namespace internal {
namespace {

std::mutex g_tallies_mu;
std::deque<ThreadTally> g_tallies;  // deque: registered tallies never move

}  // namespace

ThreadTally& ThisThread() {
  thread_local ThreadTally* tally = [] {
    std::lock_guard<std::mutex> guard(g_tallies_mu);
    return &g_tallies.emplace_back();
  }();
  return *tally;
}

}  // namespace internal

namespace {

using internal::Bump;
using internal::ThisThread;
using skern::Bytes;
using skern::ByteView;
using skern::FileAttr;
using skern::InodeHandle;
using skern::Result;
using skern::Status;

template <typename Fn>
auto TimeFs(FsOp op, Fn&& call) {
  internal::ThreadTally& t = ThisThread();
  const uint64_t inner0 = t.dev_inner_ns;
  const uint64_t start = NowNs();
  auto result = call();
  const uint64_t took = NowNs() - start;
  Bump(t, kFsCalls + op, 1);
  Bump(t, kFsNs + op, took);
  Bump(t, kFsSelfNs, took - (t.dev_inner_ns - inner0));
  t.fs_inner_ns += took;
  return result;
}

template <typename Fn>
Status TimeDev(size_t count, Fn&& call) {
  internal::ThreadTally& t = ThisThread();
  const uint64_t start = NowNs();
  Status result = call();
  const uint64_t took = NowNs() - start;
  Bump(t, count, 1);
  Bump(t, kDevNs, took);
  t.dev_inner_ns += took;
  return result;
}

double Ratio(double num, double den) { return den <= 0 ? 0 : num / den; }

uint64_t CounterValue(const char* name) {
  return skern::obs::MetricsRegistry::Get().GetCounter(name).Value();
}

skern::obs::Histogram::Snapshot Hist(const char* name) {
  return skern::obs::MetricsRegistry::Get().GetHistogram(name).GetSnapshot();
}

}  // namespace

TallySum TallySum::operator-(const TallySum& base) const {
  TallySum d = *this;
  for (size_t i = 0; i < kTallySlots; ++i) {
    d.slots[i] -= base.slots[i];
  }
  return d;
}

TallySum SumTallies() {
  TallySum sum;
  std::lock_guard<std::mutex> guard(internal::g_tallies_mu);
  for (const internal::ThreadTally& t : internal::g_tallies) {
    for (size_t i = 0; i < kTallySlots; ++i) {
      sum.slots[i] += t.slots[i].load(std::memory_order_relaxed);
    }
  }
  return sum;
}

// ---- TimedFs ----

Status TimedFs::Create(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Create(path); });
}
Status TimedFs::Mkdir(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Mkdir(path); });
}
Status TimedFs::Unlink(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Unlink(path); });
}
Status TimedFs::Rmdir(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Rmdir(path); });
}
Status TimedFs::Write(const std::string& path, uint64_t offset, ByteView data) {
  return TimeFs(kFsPathOp, [&] { return inner_->Write(path, offset, data); });
}
Result<Bytes> TimedFs::Read(const std::string& path, uint64_t offset, uint64_t length) {
  return TimeFs(kFsPathOp, [&] { return inner_->Read(path, offset, length); });
}
Status TimedFs::Truncate(const std::string& path, uint64_t new_size) {
  return TimeFs(kFsPathOp, [&] { return inner_->Truncate(path, new_size); });
}
Status TimedFs::Rename(const std::string& from, const std::string& to) {
  return TimeFs(kFsPathOp, [&] { return inner_->Rename(from, to); });
}
Result<FileAttr> TimedFs::Stat(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Stat(path); });
}
Result<std::vector<std::string>> TimedFs::Readdir(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Readdir(path); });
}
Status TimedFs::Chmod(const std::string& path, uint32_t mode) {
  return TimeFs(kFsPathOp, [&] { return inner_->Chmod(path, mode); });
}
Status TimedFs::Chown(const std::string& path, uint32_t uid, uint32_t gid) {
  return TimeFs(kFsPathOp, [&] { return inner_->Chown(path, uid, gid); });
}
Status TimedFs::Sync() {
  return TimeFs(kFsPathOp, [&] { return inner_->Sync(); });
}
Status TimedFs::Fsync(const std::string& path) {
  return TimeFs(kFsPathOp, [&] { return inner_->Fsync(path); });
}
Result<InodeHandle> TimedFs::OpenByPath(const std::string& path) {
  return TimeFs(kFsOpenByPath, [&] { return inner_->OpenByPath(path); });
}
void TimedFs::CloseHandle(InodeHandle handle) {
  TimeFs(kFsOtherHandle, [&] {
    inner_->CloseHandle(handle);
    return 0;
  });
}
Result<Bytes> TimedFs::ReadAt(InodeHandle handle, uint64_t offset, uint64_t length) {
  return TimeFs(kFsReadAt, [&] { return inner_->ReadAt(handle, offset, length); });
}
Status TimedFs::WriteAt(InodeHandle handle, uint64_t offset, ByteView data) {
  return TimeFs(kFsWriteAt, [&] { return inner_->WriteAt(handle, offset, data); });
}
Result<size_t> TimedFs::WriteAtBatch(InodeHandle handle, const skern::WriteSlice* slices,
                                     size_t count) {
  return TimeFs(kFsWriteAt, [&] { return inner_->WriteAtBatch(handle, slices, count); });
}
Result<FileAttr> TimedFs::StatHandle(InodeHandle handle) {
  return TimeFs(kFsOtherHandle, [&] { return inner_->StatHandle(handle); });
}
Status TimedFs::FsyncHandle(InodeHandle handle) {
  return TimeFs(kFsFsyncHandle, [&] { return inner_->FsyncHandle(handle); });
}

// ---- TimedDisk ----

Status TimedDisk::ReadBlock(uint64_t block, skern::MutableByteView out) {
  return TimeDev(kDevReads, [&] { return inner_.ReadBlock(block, out); });
}
Status TimedDisk::WriteBlock(uint64_t block, ByteView data) {
  return TimeDev(kDevWrites,
                 [&] { return inner_.WriteBlock(block, data); });
}
Status TimedDisk::Flush() {
  return TimeDev(kDevFlushes, [&] { return inner_.Flush(); });
}

// ---- program counters ----

ProgramCounters ReadCounters(const std::vector<const skern::SafeFs*>& file_systems) {
  ProgramCounters c;
  for (const skern::SafeFs* fs : file_systems) {
    const skern::SafeFsIoStats io = fs->io_stats();
    c.io.fast_reads += io.fast_reads;
    c.io.slow_reads += io.slow_reads;
    c.io.fast_writes += io.fast_writes;
    c.io.slow_writes += io.slow_writes;
    c.io.readahead_hits += io.readahead_hits;
    c.io.blockmap_hits += io.blockmap_hits;
    c.io.blockmap_misses += io.blockmap_misses;
    c.io.wb_drains += io.wb_drains;
    const skern::DcacheStats dcache = fs->dcache_stats();
    c.dcache.hits += dcache.hits;
    c.dcache.misses += dcache.misses;
    c.dcache.negative_hits += dcache.negative_hits;
    c.dcache.invalidations += dcache.invalidations;
    const skern::JournalStats journal = fs->journal_stats();
    c.journal.commits += journal.commits;
    c.journal.txs_committed += journal.txs_committed;
    c.journal.blocks_journaled += journal.blocks_journaled;
  }
  // SafeFs commits through Journal::Submit + Flush; the flush span covers
  // the batch commit (Journal::Commit, which SafeFs does not call, nests
  // the same span).
  const auto commit = Hist("span.journal.flush.ns");
  c.commit_count = commit.count;
  c.commit_ns = commit.sum;
  c.cache_fast = Hist("span.block.append_from_block.fast.ns").count;
  c.cache_slow = Hist("span.block.append_from_block.slow.ns").count;
  for (const auto& lock : skern::LockRegistry::Get().TopContended(skern::kMaxLockClasses)) {
    c.lock_blocked += lock.count;
    c.lock_wait_ns += lock.total_wait_ns;
    c.lock_wait_by_class[lock.name] = lock.total_wait_ns;
  }
  for (const auto& cache : skern::mem::SnapshotAllCaches()) {
    c.mem_allocs += cache.allocs;
    c.mem_frees += cache.frees;
    c.mem_magazine_hits += cache.magazine_hits;
    c.mem_slab_grows += cache.slab_grows;
  }
  c.tcp_segments = CounterValue("net.tcp.segments_sent");
  c.tcp_retransmits = CounterValue("net.tcp.retransmits");
  c.buf_bytes_copied = CounterValue("net.buf.bytes_copied");
  return c;
}

std::vector<Metric> LayerMetrics(const TallySum& t, const ProgramCounters& b,
                                 const ProgramCounters& a, const WindowWork& w) {
  const double ops = static_cast<double>(w.ops);
  auto per_call = [&](uint64_t ns, uint64_t calls) {
    return Ratio(static_cast<double>(ns), static_cast<double>(calls));
  };
  auto vfs = [&](VfsOp op) { return per_call(t[kVfsNs + op], t[kVfsCalls + op]); };
  auto fs = [&](FsOp op) { return per_call(t[kFsNs + op], t[kFsCalls + op]); };
  auto net = [&](NetOp op) { return per_call(t[kNetNs + op], t[kNetCalls + op]); };
  auto per_op = [&](uint64_t n) { return Ratio(static_cast<double>(n), ops); };
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after >= before ? after - before : 0);
  };
  auto share = [&](double hits, double misses) { return Ratio(hits, hits + misses); };

  const double fast_reads = d(a.io.fast_reads, b.io.fast_reads);
  const double slow_reads = d(a.io.slow_reads, b.io.slow_reads);
  const double dcache_hits = d(a.dcache.hits, b.dcache.hits) +
                             d(a.dcache.negative_hits, b.dcache.negative_hits);
  const double commits = d(a.journal.commits, b.journal.commits);
  const double mem_ops = d(a.mem_allocs, b.mem_allocs) + d(a.mem_frees, b.mem_frees);
  const double device_bytes_written = static_cast<double>(t[kDevWrites]) * skern::kBlockSize;

  return {
      {"vfs.open.ns", vfs(kVfsOpen), "ns"},
      {"vfs.pread.ns", vfs(kVfsPread), "ns"},
      {"vfs.stat.ns", vfs(kVfsStat), "ns"},
      {"vfs.close.ns", vfs(kVfsClose), "ns"},
      {"vfs.pwrite.ns", vfs(kVfsPwrite), "ns"},
      {"vfs.fsync.ns", vfs(kVfsFsync), "ns"},
      {"vfs.unlink.ns", vfs(kVfsUnlink), "ns"},
      {"vfs.self_ns_per_op", per_op(t[kVfsSelfNs]), "ns"},
      {"fsync_p50_us", w.fsync_p50_us, "us"},
      {"safefs.open_by_path.ns", fs(kFsOpenByPath), "ns"},
      {"safefs.read_at.ns", fs(kFsReadAt), "ns"},
      {"safefs.write_at.ns", fs(kFsWriteAt), "ns"},
      {"safefs.path_op.ns", fs(kFsPathOp), "ns"},
      {"safefs.fsync_handle.ns", fs(kFsFsyncHandle), "ns"},
      {"safefs.self_ns_per_op", per_op(t[kFsSelfNs]), "ns"},
      {"safefs.fast_read_ratio", share(fast_reads, slow_reads), "ratio"},
      {"safefs.fast_write_ratio",
       share(d(a.io.fast_writes, b.io.fast_writes), d(a.io.slow_writes, b.io.slow_writes)),
       "ratio"},
      {"safefs.blockmap_hit_ratio",
       share(d(a.io.blockmap_hits, b.io.blockmap_hits),
             d(a.io.blockmap_misses, b.io.blockmap_misses)),
       "ratio"},
      {"safefs.wb_drains_per_kop", Ratio(1000 * d(a.io.wb_drains, b.io.wb_drains), ops),
       "1/kop"},
      {"dcache.hit_ratio", share(dcache_hits, d(a.dcache.misses, b.dcache.misses)), "ratio"},
      {"dcache.invalidations_per_kop",
       Ratio(1000 * d(a.dcache.invalidations, b.dcache.invalidations), ops), "1/kop"},
      {"block.read_cache_hit_ratio",
       share(d(a.cache_fast, b.cache_fast), d(a.cache_slow, b.cache_slow)), "ratio"},
      {"block.readahead_hit_ratio",
       Ratio(d(a.io.readahead_hits, b.io.readahead_hits), fast_reads + slow_reads), "ratio"},
      {"journal.commit.ns",
       Ratio(d(a.commit_ns, b.commit_ns), d(a.commit_count, b.commit_count)), "ns"},
      {"journal.txs_per_commit",
       Ratio(d(a.journal.txs_committed, b.journal.txs_committed), commits), "ratio"},
      {"journal.blocks_per_commit",
       Ratio(d(a.journal.blocks_journaled, b.journal.blocks_journaled), commits), "blocks"},
      {"device.reads_per_op", per_op(t[kDevReads]), "1/op"},
      {"device.writes_per_op", per_op(t[kDevWrites]), "1/op"},
      {"device.flushes_per_fsync",
       Ratio(static_cast<double>(t[kDevFlushes]), static_cast<double>(w.fsyncs)), "ratio"},
      {"device.write_amp", Ratio(device_bytes_written, static_cast<double>(w.bytes_written)),
       "B/B"},
      {"device.ns_per_op", per_op(t[kDevNs]), "ns"},
      {"lock.wait_ns_per_op", Ratio(d(a.lock_wait_ns, b.lock_wait_ns), ops), "ns"},
      {"lock.contended_per_kop", Ratio(1000 * d(a.lock_blocked, b.lock_blocked), ops),
       "1/kop"},
      {"mem.magazine_hit_ratio",
       Ratio(d(a.mem_magazine_hits, b.mem_magazine_hits), mem_ops), "ratio"},
      {"mem.slab_grows", d(a.mem_slab_grows, b.mem_slab_grows), "count"},
      {"net.send.ns", net(kNetSend), "ns"},
      {"net.recv.ns", net(kNetRecv), "ns"},
      {"net.segments_per_msg",
       Ratio(d(a.tcp_segments, b.tcp_segments), static_cast<double>(w.messages)), "ratio"},
      {"net.bytes_copied_per_byte",
       Ratio(d(a.buf_bytes_copied, b.buf_bytes_copied), static_cast<double>(w.message_bytes)),
       "B/B"},
      {"net.retransmits", d(a.tcp_retransmits, b.tcp_retransmits), "count"},
  };
}

std::vector<Metric> TopLockWaits(const ProgramCounters& before, const ProgramCounters& after,
                                 uint64_t ops, size_t n) {
  std::vector<Metric> out;
  for (const auto& [name, wait_ns] : after.lock_wait_by_class) {
    auto it = before.lock_wait_by_class.find(name);
    const uint64_t base = it == before.lock_wait_by_class.end() ? 0 : it->second;
    if (wait_ns > base) {
      out.push_back({"lock_wait_ns_per_op." + name,
                     Ratio(static_cast<double>(wait_ns - base), static_cast<double>(ops)), "ns"});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.value > b.value; });
  if (out.size() > n) {
    out.resize(n);
  }
  return out;
}

}  // namespace e2e
