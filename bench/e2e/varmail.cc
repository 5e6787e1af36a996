// varmail: mail delivery, reading and expunging through the syscall layer.
//
// One closed-loop client, the spool's only writer, on a SafeFs volume
// mounted at /spool holding kBoxes mailboxes in kDirs directories. A
// delivery opens a mailbox with create+append, pwrites one message at its
// end, fsyncs and closes. A read stats a mailbox, opens it, preads all of
// it and closes. A mailbox that passes kMailboxCap is expunged (unlinked
// and re-created empty) as its own operation, so the mailboxes cycle and
// the state stays steady however long the run. Message sizes follow
// filebench's varmail personality; README.md gives the source of every
// parameter and marks the assumptions. One client only: SafeFs loses
// handle-plane writes that race a write-back drain on another thread (see
// README.md), so a second writer would fail at random.
//
// The benchmark keeps its own shadow of every mailbox: every read is
// compared with it, and at the end the device is crashed (losing all
// unflushed writes), the volume remounted, and the tree compared with the
// shadow.
#include <cstring>
#include <string>
#include <vector>

#include "bench/e2e/gen.h"
#include "bench/e2e/volume.h"
#include "bench/e2e/workload.h"

namespace e2e {
namespace {

using skern::Vfs;

constexpr uint32_t kDirs = 8;
constexpr uint32_t kBoxesPerDir = 64;
constexpr uint32_t kBoxes = kDirs * kBoxesPerDir;  // 512
// filebench varmail: appendfilerand with iosize 16k appends 1..16384 bytes.
constexpr uint64_t kMaxMessage = 16 * 1024;
// Expunge past 32 KiB: a mailbox then cycles through 0..32 KiB, mean about
// 16 KiB, filebench varmail's mean file size.
constexpr uint64_t kMailboxCap = 32 * 1024;
constexpr Geometry kSpoolGeometry = {8192, 1024, 512};  // 32 MiB, journal 2 MiB
// A round is 16 operations, deliveries and reads taking turns (filebench
// varmail does one whole-file read per append); expunges ride along when
// a delivery fills a mailbox.
constexpr int kRoundOps = 16;
constexpr int kWarmupRounds = 400;
constexpr int kSetups = 7;

bool IsRead(int slot) { return slot % 2 == 1; }

// A message as the benchmark remembers it: the seed its bytes are drawn
// from and its length. The shadow keeps these, not the bytes, so the
// benchmark's own memory stays small beside the program's.
struct Message {
  uint64_t seed = 0;
  uint64_t length = 0;
};

// The benchmark's shadow of one mailbox: the messages it should hold.
struct Mailbox {
  std::vector<Message> messages;
  uint64_t size = 0;
};

// The spool and the benchmark's shadow of it.
struct Spool {
  std::vector<std::string> dirs;
  std::vector<std::string> paths;  // by mailbox
  std::vector<Mailbox> shadow;     // by mailbox
  std::vector<uint8_t> scratch;    // message bytes, regenerated on use
  uint64_t deliveries = 0;
  uint64_t delivered_bytes = 0;
  uint64_t expunges = 0;
};

Message NextMessage(Gen& gen) { return {gen.Next(), 1 + gen.Below(kMaxMessage)}; }

// The bytes of `msg`, in `out`.
void Fill(const Message& msg, std::vector<uint8_t>& out) {
  out.resize(msg.length);
  Gen(msg.seed).Fill(out.data(), out.size());
}

bool Deliver(Vfs& vfs, Spool& sp, uint32_t box, const Message& msg, bool trace,
             ClientLog& log) {
  const std::string& path = sp.paths[box];
  Mailbox& shadow = sp.shadow[box];
  Fill(msg, sp.scratch);
  bool ok = false;
  const uint64_t start = NowNs();
  auto fd = MaybeTimeVfs(trace, kVfsOpen, [&] {
    return vfs.Open(path, skern::kOpenWrite | skern::kOpenCreate | skern::kOpenAppend);
  });
  if (fd.ok()) {
    ok = MaybeTimeVfs(trace, kVfsPwrite, [&] {
           return vfs.Pwrite(*fd, shadow.size, skern::ByteView(sp.scratch.data(), msg.length));
         }).ok();
    const uint64_t sync_start = NowNs();
    ok = MaybeTimeVfs(trace, kVfsFsync, [&] { return vfs.Fsync(*fd); }).ok() && ok;
    log.Fsync(NowNs() - sync_start);
    ok = MaybeTimeVfs(trace, kVfsClose, [&] { return vfs.Close(*fd); }).ok() && ok;
  }
  log.Op(start, NowNs(), ok);
  shadow.messages.push_back(msg);
  shadow.size += msg.length;
  ++sp.deliveries;
  sp.delivered_bytes += msg.length;
  return ok;
}

void Expunge(Vfs& vfs, Spool& sp, uint32_t box, bool trace, ClientLog& log) {
  const std::string& path = sp.paths[box];
  const uint64_t start = NowNs();
  bool ok = MaybeTimeVfs(trace, kVfsUnlink, [&] { return vfs.Unlink(path); }).ok();
  auto fd = MaybeTimeVfs(trace, kVfsOpen, [&] {
    return vfs.Open(path, skern::kOpenWrite | skern::kOpenCreate);
  });
  ok = ok && fd.ok();
  if (fd.ok()) {
    ok = MaybeTimeVfs(trace, kVfsClose, [&] { return vfs.Close(*fd); }).ok() && ok;
  }
  log.Op(start, NowNs(), ok);
  sp.shadow[box] = Mailbox{};
  ++sp.expunges;
}

// Whether the file at `path` holds exactly the messages of `want` (read
// past the end, so a longer file does not match). `timed_end` runs when the
// syscalls are done, before the bytes are checked.
template <typename Call>
bool Matches(Vfs& vfs, const std::string& path, const Mailbox& want,
             std::vector<uint8_t>& scratch, bool trace, Call&& timed_end) {
  auto fd = MaybeTimeVfs(trace, kVfsOpen, [&] { return vfs.Open(path, skern::kOpenRead); });
  if (!fd.ok()) {
    timed_end();
    return false;
  }
  auto data = MaybeTimeVfs(trace, kVfsPread,
                           [&] { return vfs.Pread(*fd, 0, want.size + kMaxMessage); });
  const bool closed = MaybeTimeVfs(trace, kVfsClose, [&] { return vfs.Close(*fd); }).ok();
  timed_end();
  if (!closed || !data.ok() || data->size() != want.size) {
    return false;
  }
  uint64_t at = 0;
  for (const Message& msg : want.messages) {
    Fill(msg, scratch);
    if (std::memcmp(data->data() + at, scratch.data(), msg.length) != 0) {
      return false;
    }
    at += msg.length;
  }
  return true;
}

// A mail client's poll: stat the mailbox for its size, then read it whole.
void ReadBox(Vfs& vfs, Spool& sp, uint32_t box, bool trace, ClientLog& log) {
  const std::string& path = sp.paths[box];
  const Mailbox& want = sp.shadow[box];
  const uint64_t start = NowNs();
  uint64_t end = 0;
  auto attr = MaybeTimeVfs(trace, kVfsStat, [&] { return vfs.Stat(path); });
  const bool read_ok = Matches(vfs, path, want, sp.scratch, trace, [&] { end = NowNs(); });
  log.Op(start, end, read_ok && attr.ok() && attr->size == want.size);
}

// One round of the fixed operation pattern, mailboxes and messages from
// `gen`. A failed operation is counted and the round goes on: the shadow
// keeps what the client asked for, so later reads of that mailbox fail too.
void Round(Vfs& vfs, Spool& sp, Gen& gen, bool trace, ClientLog& log) {
  for (int slot = 0; slot < kRoundOps; ++slot) {
    const uint32_t box = static_cast<uint32_t>(gen.Below(kBoxes));
    if (IsRead(slot)) {
      ReadBox(vfs, sp, box, trace, log);
      continue;
    }
    Deliver(vfs, sp, box, NextMessage(gen), trace, log);
    if (sp.shadow[box].size > kMailboxCap) {
      Expunge(vfs, sp, box, trace, log);
    }
  }
}

// Creates the spool's directories and mailboxes and fills each to a size
// drawn uniformly from 0..kMailboxCap, the spread a mailbox's size has once
// the fill-and-expunge cycle is steady.
bool Populate(Vfs& vfs, const std::string& root, Spool& sp, Gen gen) {
  sp = Spool{};
  sp.shadow.assign(kBoxes, {});
  ClientLog scratch;
  for (uint32_t d = 0; d < kDirs; ++d) {
    sp.dirs.push_back(root + "/dir" + std::to_string(d));
    if (!vfs.Mkdir(sp.dirs.back()).ok()) {
      return false;
    }
    for (uint32_t b = 0; b < kBoxesPerDir; ++b) {
      sp.paths.push_back(sp.dirs.back() + "/user" + std::to_string(b));
      const uint32_t box = static_cast<uint32_t>(sp.paths.size() - 1);
      auto fd = vfs.Open(sp.paths[box], skern::kOpenWrite | skern::kOpenCreate);
      if (!fd.ok() || !vfs.Close(*fd).ok()) {
        return false;
      }
      const uint64_t fill = gen.Below(kMailboxCap + 1);
      while (sp.shadow[box].size < fill) {
        if (!Deliver(vfs, sp, box, NextMessage(gen), false, scratch)) {
          return false;
        }
      }
    }
  }
  sp.deliveries = 0;
  sp.delivered_bytes = 0;
  return true;
}

// After a crash and remount: every directory lists every mailbox and every
// mailbox holds exactly its shadow.
bool SpoolMatches(Vfs& vfs, Spool& sp) {
  for (const std::string& dir : sp.dirs) {
    auto names = vfs.Readdir(dir);
    if (!names.ok() || names->size() != kBoxesPerDir) {
      return false;
    }
  }
  for (uint32_t box = 0; box < kBoxes; ++box) {
    if (!Matches(vfs, sp.paths[box], sp.shadow[box], sp.scratch, false, [] {})) {
      return false;
    }
  }
  return true;
}

uint64_t ShadowBytes(const Spool& sp) {
  uint64_t bytes = sp.scratch.capacity();
  for (const Mailbox& box : sp.shadow) {
    bytes += sizeof(Mailbox) + box.messages.capacity() * sizeof(Message);
  }
  return bytes;
}

}  // namespace

Outcome RunVarmail(const Options& opt) {
  Outcome out;
  Spool spool;
  Volume volume;
  bool built = true;
  const double setup_s = SetupSeconds(
      kSetups, 1, [&] { volume.Drop(); },
      [&] {
        built = volume.Format("/spool", kSpoolGeometry, opt.trace) &&
                Populate(*volume.vfs, "/spool", spool, Gen(Mix(opt.seed, 1))) &&
                volume.vfs->SyncAll().ok() && built;
      });
  if (!built) {
    out.correct = false;
    return out;
  }
  if (opt.inject_fault) {
    volume.fs->SetSemanticFault(skern::SafeFsSemanticFault::kWriteIgnoresTailByte);
  }
  Vfs& vfs = *volume.vfs;
  ClientLog warm;
  Gen warm_gen(Mix(opt.seed, 2));
  for (int r = 0; r < kWarmupRounds; ++r) {
    Round(vfs, spool, warm_gen, false, warm);
  }
  out.correct = warm.failed() == 0;

  Gen gen(Mix(opt.seed, 100));
  const ProgramCounters before = ReadCounters({volume.fs.get()});
  const TallySum tally_before = SumTallies();
  const uint64_t deliveries0 = spool.deliveries;
  const uint64_t bytes0 = spool.delivered_bytes;
  const uint64_t expunges0 = spool.expunges;
  std::vector<ClientLog> logs;
  const double wall_s = RunClients(1, opt.seconds, logs, [&](int, ClientLog& log) {
    Round(vfs, spool, gen, opt.trace, log);
    return true;
  });
  const ProgramCounters after = ReadCounters({volume.fs.get()});
  WindowWork work;
  work.fsyncs = spool.deliveries - deliveries0;
  work.bytes_written = spool.delivered_bytes - bytes0;
  out.detail = {
      {"clients", 1, "count"},
      {"mailboxes", kBoxes, "count"},
      {"deliveries", static_cast<double>(work.fsyncs), "count"},
      {"expunges", static_cast<double>(spool.expunges - expunges0), "count"},
      {"fsync_p50_us", FsyncP50Us(logs), "us"},
      {"harness_mb", static_cast<double>(ShadowBytes(spool) + logs[0].HistogramBytes()) / 1e6,
       "MB"},
  };
  Report(opt, logs, wall_s, setup_s, before, after, tally_before, work, out);
  const bool durable = volume.CrashAndRemount() && SpoolMatches(vfs, spool);
  out.correct = out.correct && durable;
  out.detail.push_back({"crash_remount_match", durable ? 1.0 : 0.0, "bool"});
  return out;
}

}  // namespace e2e
