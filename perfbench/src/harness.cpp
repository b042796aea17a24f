#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "monocle/round_engine.hpp"
#include "netbase/alloc_counter.hpp"

namespace perfbench {

namespace {
Options g_options;
}  // namespace

const Options& options() { return g_options; }
void set_options(const Options& opts) { g_options = opts; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void busy_wait_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

void apply_production_profile(monocle::Fleet::Config& c,
                              monocle::telemetry::TelemetryHub* hub,
                              monocle::telemetry::CheckpointStore* store) {
  c.monitor.confirm_probes = 2;  // K-of-N suspect confirmation
  enable_opt_ins(c);
  c.telemetry = hub;
  c.checkpoints = store;
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench.loop";
    case Layer::kLoopback: return "bench.loopback";
    case Layer::kLockstep: return "bench.lockstep";
    case Layer::kSchedule: return "schedule.build";
    case Layer::kPrepare: return "probe_batch.warmup";
    case Layer::kRound: return "fleet.start_round";
    case Layer::kDelivery: return "fleet.delivery";
    case Layer::kInject: return "multiplexer.inject_at";
    case Layer::kPacketIn: return "multiplexer.on_packet_in";
    case Layer::kRuntime: return "runtime.timer";
    case Layer::kFlowMod: return "fleet.route_flow_mod";
    case Layer::kSat: return "sat.generation";
    case Layer::kTelemetry: return "telemetry.poll";
    case Layer::kPumpWait: return "channel.pump_wait";
    case Layer::kSend: return "channel.send";
    case Layer::kSwitchSide: return "switchsim.control";
    case Layer::kEventQueue: return "switchsim.event_queue";
    case Layer::kCount: break;
  }
  return "?";
}

namespace trace {
namespace {

constexpr std::size_t kRawCap = 1u << 16;  // raw spans kept per thread

struct RawSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kBench;
  std::uint64_t req_a = 0;
  std::uint64_t req_b = 0;
};

struct Frame {
  Layer layer;
  std::int64_t start;
  std::int64_t child_ns;
  std::uint64_t allocs_start;
  std::uint64_t child_allocs;
  std::int32_t raw;
};

struct ThreadLog {
  std::size_t worker = SIZE_MAX;
  std::vector<Frame> stack;
  Totals totals{};
  std::vector<RawSpan> raw;
  // Burst window (see arm_window).
  bool win_armed = false;
  bool win_open = false;  // a boundary was crossed since arming
  std::int64_t win_first = 0;
  std::int64_t win_last = 0;
  std::int64_t win_child = 0;
  int win_depth = 0;
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>>& logs() {
  static std::vector<std::unique_ptr<ThreadLog>> v;
  return v;
}

ThreadLog& log() {
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->worker = monocle::RoundEngine::current_worker();
    fresh->stack.reserve(64);
    fresh->raw.reserve(kRawCap);
    mine = fresh.get();
    std::lock_guard lock(g_logs_mu);
    logs().push_back(std::move(fresh));
  }
  return *mine;
}

std::uint64_t allocs() { return monocle::netbase::heap_allocation_count(); }

bool windowed(Layer l) {
  return l == Layer::kInject || l == Layer::kRuntime || l == Layer::kSend;
}

}  // namespace

void open(Layer l, std::uint64_t req_a, std::uint64_t req_b) {
  ThreadLog& t = log();
  const std::int64_t start = now_ns();
  std::int32_t raw = -1;
  if (t.raw.size() < kRawCap) {
    raw = static_cast<std::int32_t>(t.raw.size());
    t.raw.push_back({start, start, t.stack.empty() ? -1 : t.stack.back().raw,
                     l, req_a, req_b});
  }
  if (t.win_armed && windowed(l)) {
    if (!t.win_open) {
      t.win_open = true;
      t.win_first = start;
    }
    ++t.win_depth;
  }
  t.stack.push_back({l, start, 0, allocs(), 0, raw});
}

void close() {
  ThreadLog& t = log();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - f.start;
  const std::uint64_t alloc = allocs() - f.allocs_start;
  LayerTotals& lt = t.totals[static_cast<std::size_t>(f.layer)];
  ++lt.count;
  lt.total_ns += dur;
  lt.self_ns += dur - f.child_ns;
  lt.self_allocs += alloc - std::min(alloc, f.child_allocs);
  if (!t.stack.empty()) {
    t.stack.back().child_ns += dur;
    t.stack.back().child_allocs += alloc;
  }
  if (f.raw >= 0 && static_cast<std::size_t>(f.raw) < t.raw.size()) {
    t.raw[static_cast<std::size_t>(f.raw)].end = end;
  }
  if (t.win_armed && windowed(f.layer) && t.win_depth > 0 &&
      --t.win_depth == 0) {
    t.win_child += dur;
    t.win_last = end;
  }
}

void child(Layer l, std::int64_t ns) {
  if (ns <= 0) return;
  ThreadLog& t = log();
  LayerTotals& lt = t.totals[static_cast<std::size_t>(l)];
  ++lt.count;
  lt.total_ns += ns;
  lt.self_ns += ns;
  if (!t.stack.empty()) t.stack.back().child_ns += ns;
}

Totals sum() {
  Totals out{};
  std::lock_guard lock(g_logs_mu);
  for (const auto& t : logs()) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].count += t->totals[i].count;
      out[i].total_ns += t->totals[i].total_ns;
      out[i].self_ns += t->totals[i].self_ns;
      out[i].self_allocs += t->totals[i].self_allocs;
    }
  }
  return out;
}

void reset() {
  std::lock_guard lock(g_logs_mu);
  for (const auto& t : logs()) {
    t->totals = Totals{};
    t->raw.clear();  // the Chrome trace keeps the first spans after a reset
  }
}

std::size_t raw_spans() {
  std::lock_guard lock(g_logs_mu);
  std::size_t n = 0;
  for (const auto& t : logs()) n += t->raw.size();
  return n;
}

bool write_chrome(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(g_logs_mu);
  std::int64_t base = INT64_MAX;
  for (const auto& t : logs()) {
    if (!t->raw.empty()) base = std::min(base, t->raw.front().start);
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs().size(); ++tid) {
    const ThreadLog& t = *logs()[tid];
    for (std::size_t i = 0; i < t.raw.size(); ++i) {
      const RawSpan& s = t.raw[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
          "\"worker\":%lld,\"req\":\"%llx:%llx\"}}",
          first ? "" : ",\n", layer_name(s.layer), tid,
          static_cast<double>(s.start - base) / 1e3,
          static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
          t.worker == SIZE_MAX ? -1LL : static_cast<long long>(t.worker),
          static_cast<unsigned long long>(s.req_a),
          static_cast<unsigned long long>(s.req_b));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double span_cost_ns() {
  // Calibrates on a private thread so the calibration spans never enter
  // the run's own logs or totals.
  double cost = 0.0;
  std::thread([&cost] {
    constexpr int kN = 200000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kN; ++i) {
      open(Layer::kBench, 0, 0);
      close();
    }
    cost = static_cast<double>(now_ns() - t0) / kN;
  }).join();
  std::lock_guard lock(g_logs_mu);
  logs().pop_back();  // the calibration thread's log
  return cost;
}

void arm_window() {
  ThreadLog& t = log();
  t.win_armed = true;
  t.win_open = false;
  t.win_child = 0;
  t.win_depth = 0;
}

Window disarm_window() {
  ThreadLog& t = log();
  t.win_armed = false;
  if (!t.win_open) return {};
  return {t.win_last - t.win_first, t.win_child};
}

}  // namespace trace

std::optional<monocle::netbase::ProbeMetadataView> find_probe_metadata(
    std::span<const std::uint8_t> bytes) {
  using monocle::netbase::ProbeMetadata;
  // The record starts with its magic, serialized big-endian.
  static constexpr std::array<std::uint8_t, 4> kMagic = {
      static_cast<std::uint8_t>(ProbeMetadata::kMagic >> 24),
      static_cast<std::uint8_t>(ProbeMetadata::kMagic >> 16),
      static_cast<std::uint8_t>(ProbeMetadata::kMagic >> 8),
      static_cast<std::uint8_t>(ProbeMetadata::kMagic)};
  const auto at =
      std::search(bytes.begin(), bytes.end(), kMagic.begin(), kMagic.end());
  if (at == bytes.end()) return std::nullopt;
  return monocle::netbase::ProbeMetadataView::parse(
      bytes.subspan(static_cast<std::size_t>(at - bytes.begin())));
}

ProbeId probe_id(std::span<const std::uint8_t> bytes) {
  const auto meta = find_probe_metadata(bytes);
  if (!meta) return {};
  return {meta->switch_id() << 32 | meta->nonce(), meta->rule_cookie()};
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

void TracedBackend::set_receiver(Receiver receiver) {
  inner_.set_receiver([this, receiver = std::move(receiver)](
                          const monocle::openflow::Message& msg) {
    if (!msg.is<monocle::openflow::PacketIn>()) {
      receiver(msg);
      return;
    }
    ProbeId id;
    if constexpr (kTraced) {
      Span bench(Layer::kBench);
      id = probe_id(msg.as<monocle::openflow::PacketIn>().data);
    }
    Span span(Layer::kPacketIn, id.sw_nonce, id.cookie);
    delay_at(Boundary::kPacketIn);
    receiver(msg);
  });
}

void TracedConnection::set_callbacks(Callbacks callbacks) {
  if (!callbacks.on_bytes) {
    inner_->set_callbacks(std::move(callbacks));
    return;
  }
  inner_->set_callbacks(
      {[on_bytes = std::move(callbacks.on_bytes)](
           std::span<const std::uint8_t> bytes) {
         Span span(Layer::kSwitchSide);
         on_bytes(bytes);
       },
       std::move(callbacks.on_closed)});
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
