// Shared scaffolding for the three workloads: options, the closed-loop
// client fan-out, latency recording and the result every workload returns.
#ifndef SKERN_BENCH_E2E_WORKLOAD_H_
#define SKERN_BENCH_E2E_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/e2e/layers.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // webserver and net_echo: 0 = one client per core, at most 4 (see
  // ClientCount). varmail always has one.
  int clients = 0;
  // Self-check: plant one fault the workload's output checks must catch.
  bool inject_fault = false;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Metric> detail;   // extra context for the stamp line
};

Outcome RunWebserver(const Options& opt);
Outcome RunVarmail(const Options& opt);
Outcome RunNetEcho(const Options& opt);

// One client per core, at most 4, unless --clients overrides it.
int ClientCount(const Options& opt);

// Log-linear latency histogram: 64 sub-buckets per power of two (a bucket
// is under 1.6% wide) from 64 ns to 2^31 ns (2.1 s; longer values land in
// the top bucket), 32-bit counts, 6.6 KB. Quantiles interpolate inside the
// bucket.
class LatencyLog {
 public:
  static constexpr size_t kBuckets = (31 - 6 + 1) * 64;

  LatencyLog();
  void Add(uint64_t ns);
  void Merge(const LatencyLog& other);
  // Quantile in nanoseconds; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

// What one client did. Outside the measured window it only counts; inside,
// every operation also lands in the window slice its end falls in.
class ClientLog {
 public:
  // Records one operation that ran over [start_ns, end_ns).
  void Op(uint64_t start_ns, uint64_t end_ns, bool ok);
  void Fsync(uint64_t ns) { fsync_latency_.Add(ns); }

  // Opens the measured window: `slices` slices of `slice_ns` from `start_ns`.
  void StartWindow(uint64_t start_ns, uint64_t slice_ns, size_t slices);

  uint64_t ops() const { return ops_; }
  uint64_t failed() const { return failed_; }
  const LatencyLog& fsync_latency() const { return fsync_latency_; }
  const std::vector<uint64_t>& slice_ops() const { return slice_ops_; }
  const std::vector<LatencyLog>& slice_latency() const { return slice_latency_; }
  // Bytes the log's histograms hold: the benchmark's own memory.
  uint64_t HistogramBytes() const {
    return (1 + slice_latency_.size()) * LatencyLog::kBuckets * sizeof(uint32_t);
  }

 private:
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  LatencyLog fsync_latency_;
  uint64_t window_start_ns_ = 0;
  uint64_t slice_ns_ = 0;
  std::vector<uint64_t> slice_ops_;
  std::vector<LatencyLog> slice_latency_;
};

// Runs `clients` closed-loop clients on their own threads. Each calls
// `round(client, log)` — one whole round of its fixed operation sequence —
// until `seconds` have passed, so every client stops at a round boundary.
// A round that returns false stops its client early (an unrecoverable
// failure). The window is cut into kWindowSlices equal slices; operations
// that end after the window (the last rounds' overrun) count as attempted
// but in no slice. A lone client moves to the next CPU the process may use
// at every slice boundary: one thread otherwise stays on one CPU for the
// whole run, and the CPUs of a shared host run at different speeds, so
// each run would measure whichever CPU it landed on. Returns the wall time
// from the common start to the last client's stop.
inline constexpr size_t kWindowSlices = 20;
double RunClients(int clients, double seconds, std::vector<ClientLog>& logs,
                  const std::function<bool(int client, ClientLog& log)>& round);

// Runs fn(0..n-1) on one thread each and waits for all; true if every call
// returned true.
bool RunEach(int n, const std::function<bool(int)>& fn);

double Median(std::vector<double> values);

// Set-up time in seconds: `build` rebuilds the workload's world from
// nothing and `teardown` drops the previous one. Each of `samples` samples
// runs teardown + build `builds_per_sample` times and times only the
// builds; the result is the median over the samples of the mean build
// time in a sample. Samples are kSetupGap apart and each but the last runs
// on the next CPU the process may use, so they see different moments and
// CPUs of a shared host rather than one burst on one CPU, whose speed
// varied by up to a fifth between runs. The last build is kept.
inline constexpr std::chrono::milliseconds kSetupGap{25};
double SetupSeconds(int samples, int builds_per_sample, const std::function<void()>& teardown,
                    const std::function<void()>& build);

double PeakRssMb();

// The end-to-end metrics every workload reports. Throughput and median
// latency are taken per window slice and reported as the median over the
// slices, so a burst of interference from outside the process moves a slice
// or two, not the result.
std::vector<Metric> EndToEnd(const std::vector<ClientLog>& logs, double seconds, double setup_s);

// Closes a measured window into `out`: counts attempted and failed
// operations, sets out.metrics to the end-to-end metrics, or to the
// per-layer ones when tracing, and appends the window's mean throughput
// (and, when tracing, the three most-waited lock classes) to out.detail.
// `before` and `tally_before` were read when the window opened; `work`
// carries the workload's own denominators (its op count is filled here).
void Report(const Options& opt, const std::vector<ClientLog>& logs, double wall_s,
            double setup_s, const ProgramCounters& before, const ProgramCounters& after,
            const TallySum& tally_before, WindowWork work, Outcome& out);

// Merged fsync latency median in microseconds.
double FsyncP50Us(const std::vector<ClientLog>& logs);

}  // namespace e2e

#endif  // SKERN_BENCH_E2E_WORKLOAD_H_
