#include "bench/e2e/workload.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace e2e {
namespace {

constexpr int kSubBits = 6;  // 64 sub-buckets per power of two
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr int kTopExp = 30;  // values from 2^31 ns up share the top bucket
static_assert(LatencyLog::kBuckets == (kTopExp - kSubBits + 2) * kSub);

// Values below kSub get exact buckets; above, bucket = (exponent, top bits).
size_t BucketOf(uint64_t v) {
  if (v < kSub) {
    return static_cast<size_t>(v);
  }
  v = std::min(v, (uint64_t{1} << (kTopExp + 1)) - 1);
  const int exp = 63 - __builtin_clzll(v);  // >= kSubBits
  const uint64_t top = (v >> (exp - kSubBits)) - kSub;
  return static_cast<size_t>((exp - kSubBits + 1) * kSub + top);
}

// [low, high) of bucket b.
void BucketRange(size_t b, double& low, double& high) {
  if (b < kSub) {
    low = static_cast<double>(b);
    high = low + 1;
    return;
  }
  const int exp = static_cast<int>(b / kSub) - 1 + kSubBits;
  const uint64_t top = b % kSub;
  const double unit = static_cast<double>(uint64_t{1} << (exp - kSubBits));
  low = static_cast<double>(kSub + top) * unit;
  high = low + unit;
}

}  // namespace

int ClientCount(const Options& opt) {
  if (opt.clients > 0) {
    return opt.clients;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(cores, 1, 4));
}

LatencyLog::LatencyLog() : buckets_(kBuckets, 0) {}

void LatencyLog::Add(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double LatencyLog::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  // Rank of the target sample; samples spread evenly inside their bucket.
  const double rank = std::clamp(q * static_cast<double>(count_), 1.0,
                                 static_cast<double>(count_));
  double seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) {
      continue;
    }
    const double n = static_cast<double>(buckets_[b]);
    if (seen + n >= rank) {
      double low = 0;
      double high = 0;
      BucketRange(b, low, high);
      return low + (high - low) * (rank - seen) / n;
    }
    seen += n;
  }
  return 0;
}

void ClientLog::Op(uint64_t start_ns, uint64_t end_ns, bool ok) {
  ++ops_;
  if (!ok) {
    ++failed_;
  }
  if (slice_ns_ == 0 || end_ns < window_start_ns_) {
    return;
  }
  const uint64_t slice = (end_ns - window_start_ns_) / slice_ns_;
  if (slice < slice_ops_.size()) {
    ++slice_ops_[slice];
    slice_latency_[slice].Add(end_ns - start_ns);
  }
}

void ClientLog::StartWindow(uint64_t start_ns, uint64_t slice_ns, size_t slices) {
  window_start_ns_ = start_ns;
  slice_ns_ = slice_ns;
  slice_ops_.assign(slices, 0);
  slice_latency_.assign(slices, LatencyLog{});
}

bool RunEach(int n, const std::function<bool(int)>& fn) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      if (!fn(i)) {
        ok.store(false);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return ok.load();
}

namespace {

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Moves the calling thread onto `cpus[i % cpus.size()]`, or lets it run
// on all of `cpus` when `i` is negative.
void MoveTo(const std::vector<int>& cpus, int64_t i) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (i < 0) {
    for (int cpu : cpus) {
      CPU_SET(cpu, &set);
    }
  } else {
    CPU_SET(cpus[static_cast<size_t>(i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

double RunClients(int clients, double seconds, std::vector<ClientLog>& logs,
                  const std::function<bool(int client, ClientLog& log)>& round) {
  logs.assign(static_cast<size_t>(clients), ClientLog{});
  std::vector<uint64_t> stop_ns(static_cast<size_t>(clients), 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const uint64_t slice_ns = static_cast<uint64_t>(seconds * 1e9) / kWindowSlices;
  const uint64_t window_ns = slice_ns * kWindowSlices;
  uint64_t start_ns = 0;  // written before `go` is released
  const std::vector<int> cpus = clients == 1 ? AllowedCpus() : std::vector<int>{};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ClientLog& log = logs[static_cast<size_t>(c)];
      log.StartWindow(start_ns, slice_ns, kWindowSlices);
      const bool rotate = cpus.size() > 1;
      uint64_t slice = 0;
      if (rotate) {
        MoveTo(cpus, 0);
      }
      while (round(c, log)) {
        const uint64_t now = NowNs();
        if (now >= start_ns + window_ns) {
          break;
        }
        if (rotate && (now - start_ns) / slice_ns != slice) {
          slice = (now - start_ns) / slice_ns;
          MoveTo(cpus, static_cast<int64_t>(slice));
        }
      }
      stop_ns[static_cast<size_t>(c)] = NowNs();
    });
  }
  while (ready.load() < clients) {
    std::this_thread::yield();
  }
  start_ns = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  const uint64_t last = *std::max_element(stop_ns.begin(), stop_ns.end());
  return static_cast<double>(last - start_ns) / 1e9;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double SetupSeconds(int samples, int builds_per_sample, const std::function<void()>& teardown,
                    const std::function<void()>& build) {
  const std::vector<int> cpus = AllowedCpus();
  const bool rotate = cpus.size() > 1;
  std::vector<double> mean_build_s;
  for (int s = 0; s < samples; ++s) {
    // The last sample, whose build is kept, runs on every CPU: threads a
    // build starts (a SafeFs's flusher) inherit the builder's CPUs.
    if (rotate) {
      MoveTo(cpus, s + 1 < samples ? s : -1);
    }
    uint64_t build_ns = 0;
    for (int b = 0; b < builds_per_sample; ++b) {
      teardown();
      const uint64_t start = NowNs();
      build();
      build_ns += NowNs() - start;
    }
    mean_build_s.push_back(static_cast<double>(build_ns) / 1e9 / builds_per_sample);
    std::this_thread::sleep_for(kSetupGap);
  }
  return Median(mean_build_s);
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so it would report the launching process's peak when that was larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

namespace {

// Median over the window's slices of the `q` latency quantile, in µs.
double SliceQuantileUs(const std::vector<ClientLog>& logs, double q) {
  std::vector<double> per_slice;
  for (size_t i = 0; i < kWindowSlices; ++i) {
    LatencyLog merged;
    for (const ClientLog& log : logs) {
      merged.Merge(log.slice_latency()[i]);
    }
    per_slice.push_back(merged.Quantile(q) / 1e3);
  }
  return Median(per_slice);
}

}  // namespace

std::vector<Metric> EndToEnd(const std::vector<ClientLog>& logs, double seconds, double setup_s) {
  const double slice_s = seconds / kWindowSlices;
  std::vector<double> rate;
  for (size_t i = 0; i < kWindowSlices; ++i) {
    uint64_t ops = 0;
    for (const ClientLog& log : logs) {
      ops += log.slice_ops()[i];
    }
    rate.push_back(static_cast<double>(ops) / slice_s);
  }
  return {
      {"ops_per_s", Median(rate), "1/s"},
      {"p50_us", SliceQuantileUs(logs, 0.50), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

void Report(const Options& opt, const std::vector<ClientLog>& logs, double wall_s,
            double setup_s, const ProgramCounters& before, const ProgramCounters& after,
            const TallySum& tally_before, WindowWork work, Outcome& out) {
  for (const ClientLog& log : logs) {
    out.attempted += log.ops();
    out.failed += log.failed();
  }
  out.correct = out.correct && out.failed == 0;
  out.detail.push_back({"mean_ops_per_s",
                        wall_s > 0 ? static_cast<double>(out.attempted) / wall_s : 0, "1/s"});
  if (!opt.trace) {
    out.metrics = EndToEnd(logs, opt.seconds, setup_s);
    // p99 does not repeat between runs within a tenth on a shared host
    // (README.md), so it is reported beside the result, not gated in it.
    out.detail.push_back({"p99_us", SliceQuantileUs(logs, 0.99), "us"});
    return;
  }
  work.ops = out.attempted;
  work.fsync_p50_us = FsyncP50Us(logs);
  out.metrics = LayerMetrics(SumTallies() - tally_before, before, after, work);
  for (Metric& m : TopLockWaits(before, after, out.attempted, 3)) {
    out.detail.push_back(std::move(m));
  }
}

double FsyncP50Us(const std::vector<ClientLog>& logs) {
  LatencyLog all;
  for (const ClientLog& log : logs) {
    all.Merge(log.fsync_latency());
  }
  return all.Quantile(0.50) / 1e3;
}

}  // namespace e2e
