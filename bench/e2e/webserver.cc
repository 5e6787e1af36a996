// webserver: static files served through the syscall layer.
//
// One closed-loop client per core (at most 4), all serving one site through
// one shared Vfs: a SafeFs volume mounted at /site holding a 3-deep tree.
// A request opens a file, preads all of it and closes it; the first request
// of every round of ten also stats its file first, as a conditional GET
// would. Files are picked by Zipf popularity. The tree holds several times
// the SafeFs read cache; the popular head fits in it. No request writes, so
// the journal and the write-back plane stay idle. File count, directory
// width and sizes follow filebench's webserver personality; README.md gives
// the source of every parameter and marks the assumptions.
//
// The clients share the Vfs's and the file system's locks, as the threads
// of one server do; on a shared host that makes throughput swing between
// runs, which is why BENCHMARK.json does not gate this workload.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "bench/e2e/gen.h"
#include "bench/e2e/volume.h"
#include "bench/e2e/workload.h"

namespace e2e {
namespace {

using skern::Vfs;

// filebench webserver: a mean directory width of 20 and gamma-distributed
// file sizes, mean 16 KiB, shape 1.5. 4000 files (filebench has 1000) so
// that the tree, about 62 MiB, is about four times the 16 MiB read cache.
constexpr uint32_t kTopDirs = 10;
constexpr uint32_t kSubDirs = 20;
constexpr uint32_t kFilesPerDir = 20;
constexpr uint32_t kFiles = kTopDirs * kSubDirs * kFilesPerDir;  // 4000
constexpr double kMeanFile = 16 * 1024;
constexpr double kSizeShape = 1.5;
// Sizes come from this fixed stream, not from --seed: every seed serves
// the same size at each popularity rank, so the bytes a request moves on
// average do not change with the seed.
constexpr uint64_t kSizeStream = 0x5e5;
// Within the 0.64-0.83 range Breslau et al. measured on web proxy traces.
constexpr double kZipfSkew = 0.8;
constexpr Geometry kSiteGeometry = {24576, 4608, 1024};  // 96 MiB, journal 4 MiB
constexpr uint32_t kSyncEveryFiles = 64;
constexpr int kRoundRequests = 10;  // filebench webserver's 10 reads per loop
constexpr int kWarmupRounds = 2000;  // per client
constexpr int kSetups = 3;

// A gamma(kSizeShape, mean kMeanFile) variate: shape 1.5 is the sum of an
// exponential (shape 1) and half a squared normal (shape 1/2).
uint64_t GammaSize(Gen& gen) {
  const double exponential = -std::log(1.0 - gen.Unit());
  const double radius = std::sqrt(-2.0 * std::log(1.0 - gen.Unit()));  // Box-Muller
  const double normal = radius * std::cos(2 * std::numbers::pi * gen.Unit());
  const double variate = exponential + normal * normal / 2;
  return std::max<uint64_t>(1, static_cast<uint64_t>(variate * kMeanFile / kSizeShape));
}

// What every site holds: paths below the mountpoint, contents, popularity.
struct Tree {
  std::vector<std::string> paths;             // by file id
  std::vector<std::vector<uint8_t>> content;  // by file id
  std::vector<uint32_t> by_rank;              // popularity rank -> file id
  uint64_t total_bytes = 0;
};

Tree MakeTree(uint64_t seed) {
  Tree tree;
  Gen gen(Mix(seed, 1));
  tree.by_rank = Permutation(kFiles, gen);
  Gen sizes(kSizeStream);
  std::vector<uint64_t> size_of(kFiles);
  for (uint32_t rank = 0; rank < kFiles; ++rank) {
    size_of[tree.by_rank[rank]] = GammaSize(sizes);
  }
  for (uint32_t id = 0; id < kFiles; ++id) {
    const uint32_t dir = id / kFilesPerDir;
    tree.paths.push_back("/d" + std::to_string(dir / kSubDirs) + "/s" +
                         std::to_string(dir % kSubDirs) + "/page" +
                         std::to_string(id % kFilesPerDir) + ".html");
    tree.content.push_back(gen.Bytes(size_of[id]));
    tree.total_bytes += size_of[id];
  }
  return tree;
}

// Writes the whole tree into the volume at `root` through the Vfs.
bool Populate(Vfs& vfs, const std::string& root, const Tree& tree) {
  for (uint32_t top = 0; top < kTopDirs; ++top) {
    const std::string dir = root + "/d" + std::to_string(top);
    if (!vfs.Mkdir(dir).ok()) {
      return false;
    }
    for (uint32_t sub = 0; sub < kSubDirs; ++sub) {
      if (!vfs.Mkdir(dir + "/s" + std::to_string(sub)).ok()) {
        return false;
      }
    }
  }
  for (uint32_t id = 0; id < kFiles; ++id) {
    auto fd = vfs.Open(root + tree.paths[id], skern::kOpenWrite | skern::kOpenCreate);
    if (!fd.ok()) {
      return false;
    }
    const std::vector<uint8_t>& body = tree.content[id];
    bool ok = vfs.Pwrite(*fd, 0, skern::ByteView(body.data(), body.size())).ok();
    // Commit in batches, as a deploy would, so no one commit outgrows the
    // journal: an fsync commits the volume's whole running transaction.
    if ((id + 1) % kSyncEveryFiles == 0) {
      ok = vfs.Fsync(*fd).ok() && ok;
    }
    if (!vfs.Close(*fd).ok() || !ok) {
      return false;
    }
  }
  return true;
}

// One request for file `id` of the site whose paths are `paths`, checked
// against the generated bytes.
void Serve(Vfs& vfs, const std::vector<std::string>& paths, const Tree& tree, uint32_t id,
           bool with_stat, bool trace, ClientLog& log) {
  const std::string& path = paths[id];
  const std::vector<uint8_t>& want = tree.content[id];
  bool ok = true;
  const uint64_t start = NowNs();
  if (with_stat) {
    auto attr = MaybeTimeVfs(trace, kVfsStat, [&] { return vfs.Stat(path); });
    ok = attr.ok() && attr->size == want.size();
  }
  auto fd = MaybeTimeVfs(trace, kVfsOpen, [&] { return vfs.Open(path, skern::kOpenRead); });
  if (!fd.ok()) {
    log.Op(start, NowNs(), false);
    return;
  }
  auto data = MaybeTimeVfs(trace, kVfsPread, [&] { return vfs.Pread(*fd, 0, want.size()); });
  ok = MaybeTimeVfs(trace, kVfsClose, [&] { return vfs.Close(*fd); }).ok() && ok;
  const uint64_t end = NowNs();
  ok = ok && data.ok() && data->size() == want.size() &&
       std::memcmp(data->data(), want.data(), want.size()) == 0;
  log.Op(start, end, ok);
}

// One round of requests from `gen`.
void Round(Vfs& vfs, const std::vector<std::string>& paths, const Tree& tree, const Zipf& zipf,
           Gen& gen, bool trace, ClientLog& log) {
  for (int r = 0; r < kRoundRequests; ++r) {
    Serve(vfs, paths, tree, tree.by_rank[zipf.Sample(gen)], r == 0, trace, log);
  }
}

}  // namespace

Outcome RunWebserver(const Options& opt) {
  Outcome out;
  const int clients = ClientCount(opt);
  const Tree tree = MakeTree(opt.seed);
  std::vector<std::string> paths;
  for (const std::string& path : tree.paths) {
    paths.push_back("/site" + path);
  }
  Volume volume;
  bool built = true;
  const double setup_s = SetupSeconds(
      kSetups, 1, [&] { volume.Drop(); },
      [&] {
        built = volume.Format("/site", kSiteGeometry, opt.trace) &&
                Populate(*volume.vfs, "/site", tree) && volume.vfs->SyncAll().ok() && built;
      });
  if (!built) {
    out.correct = false;
    return out;
  }
  Vfs& vfs = *volume.vfs;
  const Zipf zipf(kFiles, kZipfSkew);

  // Warm the caches with a fixed number of rounds per client.
  std::vector<ClientLog> warm(static_cast<size_t>(clients));
  RunEach(clients, [&](int c) {
    Gen gen(Mix(Mix(opt.seed, 2), static_cast<uint64_t>(c)));
    for (int r = 0; r < kWarmupRounds; ++r) {
      Round(vfs, paths, tree, zipf, gen, false, warm[static_cast<size_t>(c)]);
    }
    return true;
  });
  for (const ClientLog& log : warm) {
    out.correct = out.correct && log.failed() == 0;
  }

  std::vector<Gen> gens;
  for (int c = 0; c < clients; ++c) {
    gens.emplace_back(Mix(opt.seed, 100 + static_cast<uint64_t>(c)));
  }
  const ProgramCounters before = ReadCounters({volume.fs.get()});
  const TallySum tally_before = SumTallies();
  std::vector<ClientLog> logs;
  const double wall_s = RunClients(clients, opt.seconds, logs, [&](int c, ClientLog& log) {
    Round(vfs, paths, tree, zipf, gens[static_cast<size_t>(c)], opt.trace, log);
    return true;
  });
  const ProgramCounters after = ReadCounters({volume.fs.get()});
  uint64_t harness_bytes = tree.total_bytes;
  for (const ClientLog& log : logs) {
    harness_bytes += log.HistogramBytes();
  }
  out.detail = {
      {"clients", static_cast<double>(clients), "count"},
      {"files", kFiles, "count"},
      {"site_bytes", static_cast<double>(tree.total_bytes), "B"},
      {"zipf_skew", kZipfSkew, "1"},
      {"harness_mb", static_cast<double>(harness_bytes) / 1e6, "MB"},
  };
  Report(opt, logs, wall_s, setup_s, before, after, tally_before, WindowWork{}, out);
  return out;
}

}  // namespace e2e
