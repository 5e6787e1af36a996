// skern end-to-end benchmark: webserver, varmail and net_echo through the
// syscall layer (Vfs, SocketLayer) of the default configuration.
//
//   skern_e2e --workload <webserver|varmail|net_echo> --seed N --seconds S
//             --trace <0|1> [--clients N] [--git-sha X] [--src-digest X]
//   skern_e2e --selfcheck [--seconds S]
//
// Prints a host-stamp line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones from a traced run.
// --selfcheck plants a fault under varmail and net_echo and exits 0 only if
// both report failed operations. See README.md.
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench/e2e/workload.h"

#ifndef SKERN_E2E_BUILD_TYPE
#define SKERN_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The source skern's MonotonicNowNs reads: the invariant TSC when cpuid
// advertises one (the same test the obs layer makes), else steady_clock.
std::string ClockSource() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) != 0 && (edx & (1u << 8)) != 0) {
    return "invariant-tsc";
  }
#endif
  return "steady_clock";
}

struct Args {
  Options opt;
  bool selfcheck = false;
  std::string git_sha = "none";
  std::string src_digest = "none";
};

bool Parse(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      args.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.opt.trace = value == "1";
    } else if (flag == "--clients") {
      args.opt.clients = std::atoi(value.c_str());
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      return false;
    }
  }
  // Bounded so a typo cannot start thousands of client threads or outlast
  // a run's time limit. varmail has one client: a second writer would race
  // SafeFs's write-back drain (README.md).
  return (have_workload || args.selfcheck) && args.opt.seconds > 0 && args.opt.seconds <= 120 &&
         args.opt.clients >= 0 && args.opt.clients <= 16 &&
         (args.opt.workload != "varmail" || args.opt.clients <= 1);
}

Outcome Run(const Options& opt) {
  if (opt.workload == "webserver") {
    return RunWebserver(opt);
  }
  if (opt.workload == "varmail") {
    return RunVarmail(opt);
  }
  return RunNetEcho(opt);
}

std::string HostStamp(const Args& args) {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"build_type\": " + JsonString(SKERN_E2E_BUILD_TYPE) +
         ", \"git_sha\": " + JsonString(args.git_sha) +
         ", \"src_digest\": " + JsonString(args.src_digest) +
         ", \"clock_source\": " + JsonString(ClockSource()) + "}";
}

std::string ResultLine(const Outcome& out) {
  return std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) +
         ", \"metrics\": " + MetricsJson(out.metrics) + "}";
}

// Each planted fault must surface as failed operations.
int SelfCheck(const Args& args) {
  bool caught = true;
  for (const char* workload : {"varmail", "net_echo"}) {
    Options opt = args.opt;
    opt.workload = workload;
    opt.seconds = std::min(opt.seconds, 2.0);
    opt.inject_fault = true;
    const Outcome out = Run(opt);
    std::printf("{\"selfcheck\": %s, \"host\": %s, \"result\": %s}\n",
                JsonString(workload).c_str(), HostStamp(args).c_str(),
                ResultLine(out).c_str());
    caught = caught && out.failed > 0;
  }
  std::printf("{\"selfcheck_caught_every_fault\": %s}\n", caught ? "true" : "false");
  return caught ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::Parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: skern_e2e --workload webserver|varmail|net_echo --seed N "
                 "--seconds S --trace 0|1 [--clients N]\n"
                 "       skern_e2e --selfcheck [--seconds S]\n");
    return 2;
  }
  if (args.selfcheck) {
    return e2e::SelfCheck(args);
  }
  const std::string& w = args.opt.workload;
  if (w != "webserver" && w != "varmail" && w != "net_echo") {
    std::fprintf(stderr, "unknown workload %s\n", w.c_str());
    return 2;
  }
  const e2e::Outcome out = e2e::Run(args.opt);
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"host\": %s, \"detail\": %s}\n",
              e2e::JsonString(w).c_str(), static_cast<unsigned long long>(args.opt.seed),
              args.opt.trace ? 1 : 0, e2e::HostStamp(args).c_str(),
              e2e::MetricsJson(out.detail).c_str());
  std::printf("%s\n", e2e::ResultLine(out).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
