// tcp: the real socket path.
//
// make_star(3) -- four switches, four connections.  Every control channel
// is OpenFlow 1.0 over 127.0.0.1: the Fleet's ChannelBackends (OfSession)
// talk through a TcpTransport to WireSwitchAgents driving the simulated
// switches, all on this one thread.  Each probe crosses the kernel twice,
// so the channel and the wire codec dominate the steady phase; the update
// phase rewrites the hub's 2000 host routes one update at a time
// (sim_rig.hpp), which adds the write path: probe generation on live SAT
// sessions, TableVersion deltas and invalidation.
//
// Lockstep: the EventQueue advances only while every connection is
// quiescent -- the session's messages_tx/rx equal the agent's
// frames_rx/tx -- so no probe can time out while its bytes sit in a
// socket, and the run classifies exactly like the same seed over an
// in-process LoopbackTransport, which the prefix checks.
#include <memory>

#include "channel/channel_backend.hpp"
#include "channel/loopback.hpp"
#include "channel/tcp_transport.hpp"
#include "sim_rig.hpp"
#include "switchsim/wire_agent.hpp"

namespace perfbench {
namespace {

using monocle::Monitor;
using monocle::SwitchId;
using monocle::channel::ChannelBackend;
using monocle::channel::Connection;
using monocle::netbase::SimTime;

// Empty pumps in a row after which the lockstep blocks in poll(2) instead
// of spinning, and the bound on a single settle.
constexpr int kSpinPumps = 64;
constexpr SimTime kBlockWait = 1'000'000;  // 1 ms
constexpr int kMaxSettlePumps = 200'000;

/// One switch's two ends of its control channel.
struct Station {
  SwitchId sw = 0;
  ChannelBackend* backend = nullptr;  // owned by the SimRig
  std::unique_ptr<TracedConnection> conn;  // switch side, wraps the socket
  std::unique_ptr<monocle::switchsim::WireSwitchAgent> agent;
};

class WireRig final : public SimRig {
 public:
  /// `socket` true: 127.0.0.1 TCP; false: the in-process reference over a
  /// LoopbackTransport.
  WireRig(std::uint64_t seed, bool socket)
      : SimRig(seed), socket_(socket) {
    std::vector<std::unique_ptr<monocle::channel::SwitchBackend>> backends;
    for (const SwitchId sw : dpids_) {
      auto st = std::make_unique<Station>();
      st->sw = sw;
      Station* raw = st.get();
      if (socket_) {
        switch_side_.listen(
            0,
            [this, raw](Connection* c) { attach_agent(*raw, c); },
            "127.0.0.1");
        ports_[sw] = switch_side_.listen_port();
      }
      ChannelBackend::Config cfg;
      cfg.expected_dpid = sw;
      auto backend = std::make_unique<ChannelBackend>(
          cfg, &rt_, [this, raw]() -> Connection* {
            if (socket_) {
              return controller_side_.dial("127.0.0.1", ports_.at(raw->sw));
            }
            const auto pair = loopback_.make_pair();
            attach_agent(*raw, pair.b);
            return pair.a;
          });
      st->backend = backend.get();
      backends.push_back(std::move(backend));
      stations_.push_back(std::move(st));
    }
    start(std::move(backends), [this] { handshake(); });
  }

  ~WireRig() override { teardown(); }

  void final_checks(Result& r) override {
    SimRig::final_checks(r);
    std::uint64_t errors = 0;
    std::uint64_t disconnects = 0;
    for (const auto& st : stations_) {
      errors += st->backend->session().stats().protocol_errors;
      disconnects += st->backend->stats().disconnects;
    }
    if (errors > 0) r.fail(std::to_string(errors) + " protocol errors", errors);
    if (disconnects > 0) {
      r.fail(std::to_string(disconnects) + " channel disconnects", disconnects);
    }
    if (unsettled_ > 0) {
      r.fail(std::to_string(unsettled_) +
                 " lockstep settles gave up with bytes in flight",
             unsettled_);
    }
  }

  void fill_trace(TraceInputs& in) override {
    SimRig::fill_trace(in);
    in.frames = 0;
    for (const auto& st : stations_) {
      const auto& s = st->backend->session().stats();
      in.frames += s.messages_tx + s.messages_rx;
    }
    in.pumps = pumps_;
    in.idle_pump_ns = idle_pump_ns_;
  }

 protected:
  void advance(SimTime by) override {
    // A sentinel at the horizon: events up to it run one at a time, the
    // channel settling after each, so every message an event sends is
    // delivered before simulated time moves on.
    bool reached = false;
    eq_.schedule(by, [&reached] { reached = true; });
    settle();
    while (!reached) {
      run_one();
      settle();
    }
  }

 private:
  void attach_agent(Station& st, Connection* c) {
    st.agent.reset();
    st.conn = std::make_unique<TracedConnection>(c);
    st.agent = std::make_unique<monocle::switchsim::WireSwitchAgent>(
        net_.at(st.sw), &net_, st.conn.get());
  }

  void run_one() {
    Span span(Layer::kEventQueue);
    Monitor* hub = kTraced ? fleet().monitor(kHub) : nullptr;
    const auto gen0 = kTraced ? hub->stats().generation_time
                              : std::chrono::nanoseconds{0};
    eq_.run_one();
    ++sim_events_;
    if constexpr (kTraced) {
      trace::child(Layer::kSat, (hub->stats().generation_time - gen0).count());
    }
  }

  [[nodiscard]] bool quiescent() const {
    for (const auto& st : stations_) {
      if (!st->agent) return false;
      const auto& s = st->backend->session().stats();
      const auto& a = st->agent->stats();
      if (s.messages_tx != a.frames_rx || a.frames_tx != s.messages_rx) {
        return false;
      }
    }
    return true;
  }

  /// Pumps both ends until every connection is quiescent.
  void settle() {
    Span span(Layer::kLockstep);
    int empty = 0;
    for (int i = 0; !quiescent(); ++i) {
      if (i == kMaxSettlePumps) {
        ++unsettled_;
        return;
      }
      const SimTime wait = empty >= kSpinPumps ? kBlockWait : 0;
      empty = pump(wait) == 0 ? empty + 1 : 0;
    }
  }

  /// One pump of each transport; returns events handled.
  std::size_t pump(SimTime wait) {
    std::size_t n = 0;
    if (!socket_) {
      Span span(Layer::kPumpWait);
      n = loopback_.pump();
      ++pumps_;
      return n;
    }
    for (monocle::channel::TcpTransport* t :
         {&controller_side_, &switch_side_}) {
      Span span(Layer::kPumpWait);
      delay_at(Boundary::kPumpWait);
      const std::int64_t t0 = kTraced ? now_ns() : 0;
      const std::size_t handled = t->pump_wait(wait);
      ++pumps_;
      if (kTraced && handled == 0) idle_pump_ns_ += now_ns() - t0;
      n += handled;
    }
    return n;
  }

  /// Connects every backend: pumps until each handshake completed.
  void handshake() {
    for (int i = 0; i < kMaxSettlePumps; ++i) {
      bool up = true;
      for (const auto& st : stations_) up = up && st->backend->up();
      if (up && quiescent()) return;
      pump(i > kSpinPumps ? kBlockWait : 0);
    }
  }

  bool socket_;
  monocle::channel::TcpTransport controller_side_;
  monocle::channel::TcpTransport switch_side_;
  monocle::channel::LoopbackTransport loopback_;
  std::map<SwitchId, std::uint16_t> ports_;
  std::vector<std::unique_ptr<Station>> stations_;  // after the transports
  std::uint64_t pumps_ = 0;
  std::int64_t idle_pump_ns_ = 0;
  std::uint64_t unsettled_ = 0;
};

std::unique_ptr<Rig> make_tcp(std::uint64_t seed) {
  return std::make_unique<WireRig>(seed, true);
}

}  // namespace

Result run_tcp() {
  // The in-process reference: the same seed and stack over a loopback
  // transport.  Its prefix checks count towards this run.
  Result r;
  std::vector<std::uint64_t> reference;
  {
    WireRig rig(options().seed, false);
    reference = rig.prefix(r);
  }
  Result measured = run_workload(&make_tcp, 2, &reference);
  measured.attempted += r.attempted;
  measured.failed += r.failed;
  measured.correct = measured.correct && r.correct;
  for (const std::string& v : r.violations) {
    measured.violations.push_back("in-process reference: " + v);
  }
  return measured;
}

}  // namespace perfbench
