// Shared pieces of the repo benchmark (see perfbench/spec.json):
//
//  * options and the result line every workload prints;
//  * the production profile every workload runs (one place, so the PR that
//    deletes a runtime toggle never has to edit the benchmark);
//  * the outside-in span recorder of the traced build: spans are opened
//    only around calls the benchmark makes INTO the program and around the
//    hooks, backends, connections and Runtimes it hands the program, never
//    inside src/;
//  * the wrappers that carry those spans and the sensitivity self-test's
//    busy-wait to the program's boundaries.
//
// The untraced build (PERFBENCH_TRACED=0) compiles every span to nothing and
// links no allocation-counting hook, so its end-to-end numbers are the
// program's.  The wrappers stay in both builds, so the traced and untraced
// runs differ only by the recorder.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/switch_backend.hpp"
#include "channel/transport.hpp"
#include "monocle/fleet.hpp"
#include "monocle/runtime.hpp"
#include "netbase/probe_metadata.hpp"
#include "openflow/messages.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench {

inline constexpr bool kTraced = PERFBENCH_TRACED != 0;

std::int64_t now_ns();
void busy_wait_ns(std::int64_t ns);

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Boundaries the sensitivity self-test can slow down by a fixed busy-wait.
enum class Boundary : std::uint8_t {
  kNone,
  kInject,    ///< the inject hook around Multiplexer::inject_at
  kPacketIn,  ///< PacketIn delivery into Multiplexer::on_packet_in
  kFlowMod,   ///< the Fleet::route_flow_mod call
  kPumpWait,  ///< each TcpTransport::pump_wait call
  kRuntime,   ///< each Runtime::schedule / cancel through the wrapper
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Boundary delay_at = Boundary::kNone;
  std::int64_t delay_ns = 0;
  std::string trace_file;  ///< Chrome trace-event JSON (traced build)
};

const Options& options();
void set_options(const Options& opts);

/// The sensitivity self-test's busy-wait: spins for --delay-ns when
/// --delay-at names `b`, otherwise returns at once.
inline void delay_at(Boundary b) {
  const Options& o = options();
  if (o.delay_at == b && b != Boundary::kNone) busy_wait_ns(o.delay_ns);
}

// ---------------------------------------------------------------------------
// The production profile
// ---------------------------------------------------------------------------

/// Sets an opt-in Fleet toggle only while the field still exists, so the
/// change that makes the robust path the only path compiles the benchmark
/// unchanged.
template <typename Config>
void enable_opt_ins(Config& c) {
  if constexpr (requires { c.elastic_budget; }) c.elastic_budget = true;
  if constexpr (requires { c.evidence_localization; }) {
    c.evidence_localization = true;
  }
}

/// The profile we would ship: K-of-N verdicts, evidence localization,
/// elastic budgets, telemetry with an in-memory journal, an in-memory
/// checkpoint store.  Everything else keeps the library default (batch
/// generation, delta maintenance, wire reuse, flat routing are never set).
/// The caller enables supervision on the built Fleet
/// (Fleet::enable_supervision) and owns `hub` and `store`.
void apply_production_profile(monocle::Fleet::Config& c,
                              monocle::telemetry::TelemetryHub* hub,
                              monocle::telemetry::CheckpointStore* store);

// ---------------------------------------------------------------------------
// Span recorder (traced build only)
// ---------------------------------------------------------------------------

/// One entry per boundary the benchmark times; layer_name() labels them in
/// the Chrome trace.
enum class Layer : std::uint8_t {
  kBench,       ///< benchmark bookkeeping (the closed loop, checks)
  kLoopback,    ///< sweep: the stand-in data plane (PacketOut -> PacketIn)
  kLockstep,    ///< tcp: quiescence bookkeeping around the pumps
  kSchedule,    ///< RoundSchedule::build
  kPrepare,     ///< Fleet::prepare (catching rules + batch SAT warm-up)
  kRound,       ///< Fleet::start_round
  kDelivery,    ///< sweep: looped-back PacketIns and the Runtime's timers
  kInject,      ///< the inject hook: Multiplexer::inject_at
  kPacketIn,    ///< Multiplexer::on_packet_in (loopback or backend receiver)
  kRuntime,     ///< Runtime::schedule / cancel through the wrapper
  kFlowMod,     ///< Fleet::route_flow_mod
  kSat,         ///< Δ MonitorStats::generation_time inside a call (child)
  kTelemetry,   ///< TelemetryHub::poll + exporter render
  kPumpWait,    ///< TcpTransport::pump_wait (controller or switch side)
  kSend,        ///< SwitchBackend::send (OfSession encode + socket write)
  kSwitchSide,  ///< the simulated switch control path (WireSwitchAgent)
  kEventQueue,  ///< switchsim::EventQueue run calls (the data plane)
  kCount
};

const char* layer_name(Layer l);

struct LayerTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
};
using Totals = std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)>;

namespace trace {

void open(Layer l, std::uint64_t req_a, std::uint64_t req_b);
void close();
/// Charges `ns` of work the program timed itself (generation_time) to
/// `l` as a child of the innermost open span.
void child(Layer l, std::int64_t ns);
/// Per-layer totals summed over every thread that recorded spans.
Totals sum();
/// Zeroes every thread's totals and raw spans (start of a phase).
void reset();
/// Raw spans recorded so far (bounded), across threads.
std::size_t raw_spans();
/// Writes the raw spans as Chrome trace-event JSON; false on I/O error.
bool write_chrome(const std::string& path);
/// Measured cost of one open/close pair on this machine (ns).
double span_cost_ns();

/// Burst window.  While armed (around Fleet::start_round), the recorder
/// notes the first and last inject/runtime/send boundary crossed and the
/// time spent inside them; the gaps are the Monitor's own burst work.
struct Window {
  std::int64_t span_ns = 0;   ///< first boundary entry .. last exit
  std::int64_t child_ns = 0;  ///< time inside the boundaries
};
void arm_window();
/// Disarms and returns the window (zero when no boundary was crossed).
Window disarm_window();

}  // namespace trace

/// RAII span; compiles to nothing in the untraced build.
class Span {
 public:
  explicit Span(Layer l, std::uint64_t req_a = 0, std::uint64_t req_b = 0) {
    if constexpr (kTraced) trace::open(l, req_a, req_b);
  }
  ~Span() {
    if constexpr (kTraced) trace::close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// The metadata record a probe packet carries in its payload; nullopt when
/// `bytes` holds none.
std::optional<monocle::netbase::ProbeMetadataView> find_probe_metadata(
    std::span<const std::uint8_t> bytes);

/// Request id of a probe: its metadata record's switch, cookie and nonce
/// (0s when `bytes` carries no record).  Traced build only.
struct ProbeId {
  std::uint64_t sw_nonce = 0;  ///< switch << 32 | nonce
  std::uint64_t cookie = 0;
};
ProbeId probe_id(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Wrappers handed to the program
// ---------------------------------------------------------------------------

/// Runtime wrapper: counts (and in the traced build times) every
/// schedule/cancel the program makes, and carries the kRuntime busy-wait.
/// Single-threaded like the Runtime it wraps.
class CountingRuntime final : public monocle::Runtime {
 public:
  explicit CountingRuntime(monocle::Runtime* inner) : inner_(inner) {}
  [[nodiscard]] monocle::netbase::SimTime now() const override {
    return inner_->now();
  }
  std::uint64_t schedule(monocle::netbase::SimTime delay,
                         std::function<void()> fn) override {
    Span span(Layer::kRuntime);
    delay_at(Boundary::kRuntime);
    ++ops_;
    return inner_->schedule(delay, std::move(fn));
  }
  void cancel(std::uint64_t timer_id) override {
    Span span(Layer::kRuntime);
    delay_at(Boundary::kRuntime);
    ++ops_;
    inner_->cancel(timer_id);
  }
  /// schedule + cancel calls so far.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  monocle::Runtime* inner_;
  std::uint64_t ops_ = 0;
};

/// SwitchBackend wrapper: spans around send() and around the receiver the
/// Multiplexer installs (a PacketIn's dispatch and classification), plus
/// the kPacketIn busy-wait.  Everything else forwards.  `send_layer` names
/// what send() runs: the channel (encode + socket) or the simulated
/// switch's control path.
class TracedBackend final : public monocle::channel::SwitchBackend {
 public:
  TracedBackend(monocle::channel::SwitchBackend& inner, Layer send_layer)
      : inner_(inner), send_layer_(send_layer) {}
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  void send(const monocle::openflow::Message& msg) override {
    Span span(send_layer_);
    inner_.send(msg);
  }
  void set_receiver(Receiver receiver) override;
  void set_state_handler(StateHandler handler) override {
    inner_.set_state_handler(std::move(handler));
  }
  [[nodiscard]] bool up() const override { return inner_.up(); }
  [[nodiscard]] std::uint64_t datapath_id() const override {
    return inner_.datapath_id();
  }

 private:
  monocle::channel::SwitchBackend& inner_;
  Layer send_layer_;
};

/// Connection wrapper for the switch side of a socket: the WireSwitchAgent
/// installs its callbacks through it, so its frame handling (decode,
/// SimSwitch processing, PacketIn encode) is a kSwitchSide span inside the
/// transport's pump.
class TracedConnection final : public monocle::channel::Connection {
 public:
  explicit TracedConnection(monocle::channel::Connection* inner)
      : inner_(inner) {}
  void set_callbacks(Callbacks callbacks) override;
  bool send(std::span<const std::uint8_t> bytes) override {
    return inner_->send(bytes);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  monocle::channel::Connection* inner_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Percentile by nearest rank over `v` (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);

/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< the --trace 0 set
  std::map<std::string, Metric> layer;    ///< the --trace 1 set
  std::vector<std::string> violations;    ///< failed correctness checks
  std::vector<std::string> notes;         ///< printed before the result

  void fail(const std::string& why, std::uint64_t count = 1) {
    correct = false;
    failed += count;
    violations.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Every workload's entry point.
Result run_sweep();
Result run_tcp();

}  // namespace perfbench
