// The benchmark's own input generator.
//
// Every input the workloads feed skern — file contents, mailbox picks,
// message payloads, request sequences — comes from here, seeded from the
// command line, never from the program's own Rng. A change to skern's Rng
// therefore cannot change what the benchmark asks of it.
#ifndef SKERN_BENCH_E2E_GEN_H_
#define SKERN_BENCH_E2E_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

// SplitMix64 finalizer: derives independent stream seeds from (seed, tag).
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xorshift64* stream.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(Mix(seed, 0x6e67) | 1) {}

  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }

  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Fills `out` with the stream's next words, low byte first.
  void Fill(uint8_t* out, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const uint64_t v = Next();
      for (size_t b = 0; b < 8; ++b) {
        out[i + b] = static_cast<uint8_t>(v >> (8 * b));
      }
    }
    uint64_t v = Next();
    for (; i < n; ++i, v >>= 8) {
      out[i] = static_cast<uint8_t>(v);
    }
  }

  std::vector<uint8_t> Bytes(size_t n) {
    std::vector<uint8_t> out(n);
    Fill(out.data(), n);
    return out;
  }

 private:
  uint64_t state_;
};

// Zipf(s) over ranks [0, n): rank r is drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(uint64_t n, double s) : cdf_(n) {
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }

  uint64_t Sample(Gen& gen) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), gen.Unit());
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// A seeded permutation of [0, n) (Fisher-Yates).
inline std::vector<uint32_t> Permutation(uint32_t n, Gen& gen) {
  std::vector<uint32_t> out(n);
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = i;
  }
  for (uint32_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[gen.Below(i)]);
  }
  return out;
}

}  // namespace e2e

#endif  // SKERN_BENCH_E2E_GEN_H_
