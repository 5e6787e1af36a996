// net_echo: request/response echo through the socket layer.
//
// Two default modular stacks (client and server) share one zero-delay wire,
// so every send is delivered inline and a round trip is pure stack work.
// One connection per client thread (one per core, at most 4); the thread
// drives both ends: the client sends a message, the server receives it and
// sends each received chunk back, and the client receives the echo and
// checks every byte. Each round of 16 messages holds 15 small ones (64 B,
// where per-packet cost dominates) and one 16 KiB one (where copies
// dominate), at a seeded position. The sizes and the mix are assumptions
// (README.md says what each stands for). No storage is touched.
#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/e2e/gen.h"
#include "bench/e2e/workload.h"
#include "src/base/sim_clock.h"
#include "src/net/network.h"
#include "src/net/stack_modular.h"

namespace e2e {
namespace {

using skern::SocketId;

constexpr uint16_t kPort = 7;
constexpr uint32_t kClientIp = 1;
constexpr uint32_t kServerIp = 2;
constexpr size_t kSmallBytes = 64;
constexpr size_t kLargeBytes = 16 * 1024;
constexpr size_t kSmallPayloads = 32;
constexpr size_t kLargePayloads = 4;
constexpr int kRoundMessages = 16;  // one of them large
constexpr int kWarmupRounds = 200;
// A stack pair builds in tens of microseconds, so each set-up sample times
// a batch of builds (each after an untimed teardown of the one before).
constexpr int kSetupSamples = 21;
constexpr int kBuildsPerSample = 100;
// Empty receives tolerated in one echo before it counts as failed. With a
// zero-delay wire the data is always there; this only bounds a broken stack.
constexpr int kMaxEmptyRecvs = 100000;

struct Wire {
  skern::SimClock clock;
  skern::Network network{clock};
  std::unique_ptr<skern::ModularNetStack> client;
  std::unique_ptr<skern::ModularNetStack> server;
  std::vector<SocketId> client_socks;  // by connection
  std::vector<SocketId> server_socks;
};

bool Build(std::unique_ptr<Wire>& wire, int conns) {
  wire = std::make_unique<Wire>();
  Wire& w = *wire;
  w.network.set_delay(0);
  w.client = skern::MakeStandardModularStack(w.clock, w.network, kClientIp);
  w.server = skern::MakeStandardModularStack(w.clock, w.network, kServerIp);
  auto listener = w.server->Socket(skern::kProtoTcp);
  if (!listener.ok() || !w.server->Bind(*listener, kPort).ok() ||
      !w.server->Listen(*listener).ok()) {
    return false;
  }
  for (int c = 0; c < conns; ++c) {
    auto s = w.client->Socket(skern::kProtoTcp);
    if (!s.ok() || !w.client->Connect(*s, skern::NetAddr{kServerIp, kPort}).ok()) {
      return false;
    }
    auto accepted = w.server->Accept(*listener);
    if (!accepted.ok()) {
      return false;
    }
    w.client_socks.push_back(*s);
    w.server_socks.push_back(*accepted);
  }
  return true;
}

// Receives exactly `n` bytes from `s`, handing each chunk to `sink`.
// False on an error or a stalled stream.
template <typename Sink>
bool RecvExactly(skern::SocketLayer& stack, SocketId s, size_t n, bool trace, Sink&& sink) {
  size_t got = 0;
  int empty = 0;
  while (got < n) {
    auto chunk = MaybeTimeNet(trace, kNetRecv, [&] { return stack.Recv(s, n - got); });
    if (!chunk.ok()) {
      return false;
    }
    if (chunk->empty()) {
      if (++empty > kMaxEmptyRecvs) {
        return false;
      }
      std::this_thread::yield();
      continue;
    }
    got += chunk->size();
    if (!sink(*chunk)) {
      return false;
    }
  }
  return true;
}

// One echo of `msg` over connection `conn`; `want` is what must come back.
bool Echo(Wire& w, int conn, const std::vector<uint8_t>& msg, const std::vector<uint8_t>& want,
          bool trace, std::vector<uint8_t>& echoed, ClientLog& log) {
  const SocketId cs = w.client_socks[static_cast<size_t>(conn)];
  const SocketId ss = w.server_socks[static_cast<size_t>(conn)];
  echoed.clear();
  const uint64_t start = NowNs();
  bool ok = MaybeTimeNet(trace, kNetSend, [&] {
              return w.client->Send(cs, skern::ByteView(msg.data(), msg.size()));
            }).ok();
  ok = ok && RecvExactly(*w.server, ss, msg.size(), trace, [&](const skern::Bytes& chunk) {
         return MaybeTimeNet(trace, kNetSend, [&] {
                  return w.server->Send(ss, skern::ByteView(chunk));
                }).ok();
       });
  ok = ok && RecvExactly(*w.client, cs, msg.size(), trace, [&](const skern::Bytes& chunk) {
         echoed.insert(echoed.end(), chunk.begin(), chunk.end());
         return true;
       });
  const uint64_t end = NowNs();
  ok = ok && echoed.size() == want.size() &&
       std::memcmp(echoed.data(), want.data(), want.size()) == 0;
  log.Op(start, end, ok);
  return ok;
}

struct Payloads {
  std::vector<std::vector<uint8_t>> small;
  std::vector<std::vector<uint8_t>> large;
  std::vector<std::vector<uint8_t>> small_want;  // what the checker expects back
  std::vector<std::vector<uint8_t>> large_want;
};

Payloads MakePayloads(uint64_t seed, bool flip_one_expected_byte) {
  Payloads p;
  Gen gen(Mix(seed, 1));
  for (size_t i = 0; i < kSmallPayloads; ++i) {
    p.small.push_back(gen.Bytes(kSmallBytes));
  }
  for (size_t i = 0; i < kLargePayloads; ++i) {
    p.large.push_back(gen.Bytes(kLargeBytes));
  }
  p.small_want = p.small;
  p.large_want = p.large;
  if (flip_one_expected_byte) {
    p.small_want[0][kSmallBytes / 2] ^= 0x01;
  }
  return p;
}

// One round on one connection. False stops the client: a failed echo may
// leave bytes in flight, and every later echo on the stream would misread.
bool Round(Wire& w, const Payloads& p, int conn, Gen& gen, bool trace,
           std::vector<uint8_t>& echoed, ClientLog& log, uint64_t& bytes) {
  const int large_at = static_cast<int>(gen.Below(kRoundMessages));
  for (int i = 0; i < kRoundMessages; ++i) {
    const bool large = i == large_at;
    const size_t pick = gen.Below(large ? kLargePayloads : kSmallPayloads);
    const auto& msg = large ? p.large[pick] : p.small[pick];
    const auto& want = large ? p.large_want[pick] : p.small_want[pick];
    bytes += msg.size();
    if (!Echo(w, conn, msg, want, trace, echoed, log) && echoed.size() != want.size()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome RunNetEcho(const Options& opt) {
  Outcome out;
  const int conns = ClientCount(opt);
  std::unique_ptr<Wire> wire;
  bool built = true;
  const double setup_s = SetupSeconds(
      kSetupSamples, kBuildsPerSample, [&] { wire.reset(); },
      [&] { built = Build(wire, conns) && built; });
  if (!built) {
    out.correct = false;
    return out;
  }
  const Payloads payloads = MakePayloads(opt.seed, opt.inject_fault);
  std::vector<std::vector<uint8_t>> echoed(static_cast<size_t>(conns));
  std::vector<uint64_t> bytes(static_cast<size_t>(conns), 0);

  std::vector<ClientLog> warm(static_cast<size_t>(conns));
  RunEach(conns, [&](int c) {
    const size_t i = static_cast<size_t>(c);
    Gen gen(Mix(Mix(opt.seed, 2), i));
    uint64_t warm_bytes = 0;
    for (int r = 0; r < kWarmupRounds; ++r) {
      Round(*wire, payloads, c, gen, false, echoed[i], warm[i], warm_bytes);
    }
    return true;
  });
  for (const ClientLog& log : warm) {
    out.correct = out.correct && log.failed() == 0;
  }

  std::vector<Gen> gens;
  for (int c = 0; c < conns; ++c) {
    gens.emplace_back(Mix(opt.seed, 100 + static_cast<uint64_t>(c)));
  }
  const ProgramCounters before = ReadCounters({});
  const TallySum tally_before = SumTallies();
  std::vector<ClientLog> logs;
  const double wall_s = RunClients(conns, opt.seconds, logs, [&](int c, ClientLog& log) {
    const size_t i = static_cast<size_t>(c);
    return Round(*wire, payloads, c, gens[i], opt.trace, echoed[i], log, bytes[i]);
  });
  const ProgramCounters after = ReadCounters({});
  WindowWork work;
  for (size_t i = 0; i < logs.size(); ++i) {
    work.messages += 2 * logs[i].ops();
    work.message_bytes += 2 * bytes[i];
  }
  uint64_t harness_bytes = (kSmallPayloads * kSmallBytes + kLargePayloads * kLargeBytes) * 2;
  for (size_t i = 0; i < logs.size(); ++i) {
    harness_bytes += logs[i].HistogramBytes() + echoed[i].capacity();
  }
  out.detail = {
      {"connections", static_cast<double>(conns), "count"},
      {"harness_mb", static_cast<double>(harness_bytes) / 1e6, "MB"},
  };
  Report(opt, logs, wall_s, setup_s, before, after, tally_before, work, out);
  return out;
}

}  // namespace e2e
