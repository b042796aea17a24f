// sweep: steady verification at fleet scale, in-process.
//
// A Rocketfuel-like fleet of kSwitches switches with kRulesPerSwitch host
// routes each, run by one round worker: the Fleet runs inline on its
// Runtime.  The data plane is a loopback (the tests/fleet_mt_test.cpp
// FleetMtRig pattern): each PacketOut is replayed as the PacketIn its
// rule's catcher would raise.  The Runtime is a switchsim::EventQueue, the
// heap-and-live-set Runtime production timers pay for.  The probes of about
// 0.5% of the rules vanish (seeded failures).
//
// SAT runs only in set-up and in the short update phase (host-route port
// moves); the steady pipeline -- monitor cycle, multiplexer, restamp,
// budgets, telemetry, checkpoints -- does nearly all the work.
//
// The round engine's workers are not run here.  With two, each round pays
// for condvar handoffs between threads whose wake-up latency on a virtual
// machine follows the host's load: on a 4-vCPU Xeon VM two workers
// measured 98k to 133k probes/s from run to run against about 540k for
// one, too unsteady to bound.
#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <unordered_set>
#include <unordered_map>

#include "closed_loop.hpp"
#include "monocle/catching.hpp"
#include "monocle/fleet.hpp"
#include "monocle/multiplexer.hpp"
#include "monocle/schedule.hpp"
#include "switchsim/event_queue.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "telemetry/hub.hpp"
#include "topo/generators.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace perfbench {
namespace {

using monocle::Fleet;
using monocle::Monitor;
using monocle::Multiplexer;
using monocle::RuleState;
using monocle::SwitchId;
using monocle::netbase::SimTime;
using monocle::netbase::kMillisecond;
namespace openflow = monocle::openflow;

// Sizes and fixed inputs (spec.json records them).
constexpr std::size_t kSwitches = 200;
constexpr std::size_t kRulesPerSwitch = 32;
constexpr int kWarmupThreads = 2;
constexpr std::size_t kProbesPerSwitch = 32;
// The topology is fixed so every seed probes the same fabric; the run's
// seed picks the failed rules and the update targets.
constexpr std::uint64_t kTopologySeed = 1;
constexpr double kFailedShare = 0.005;
// Simulated time one closed-loop round advances (= Fleet round_interval).
constexpr SimTime kRoundStep = 10 * kMillisecond;

class SweepRig final : public Rig {
 public:
  explicit SweepRig(std::uint64_t seed)
      : topo_(monocle::topo::make_rocketfuel_as(kSwitches, kTopologySeed)),
        view_(topo_),
        mux_(&view_),
        rng_(seed),
        cycle_(seed) {
    std::vector<SwitchId> dpids;
    for (monocle::topo::NodeId n = 0; n < topo_.node_count(); ++n) {
      dpids.push_back(view_.dpid_of(n));
    }
    plan_ = monocle::CatchPlan::build(topo_, dpids,
                                      monocle::CatchStrategy::kSingleField);

    Fleet::Config& config = config_;
    apply_production_profile(config, &hub_, &store_);
    config.round_interval = kRoundStep;
    config.probes_per_switch = kProbesPerSwitch;
    config.warmup_threads = kWarmupThreads;
    fleet_ = std::make_unique<Fleet>(config, &runtime_, &view_, &plan_);
    fleet_->enable_supervision();
    {
      Span span(Layer::kSchedule);
      fleet_->set_schedule(monocle::RoundSchedule::build(topo_, dpids));
    }

    for (const SwitchId sw : dpids) {
      const monocle::SwitchOrdinal ord = mux_.intern(sw);
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      hooks.inject = [this, ord](std::uint16_t in_port,
                                 std::span<const std::uint8_t> bytes) {
        ProbeId id;
        if constexpr (kTraced) {
          Span bench(Layer::kBench);
          id = probe_id(bytes);
        }
        Span span(Layer::kInject, id.sw_nonce, id.cookie);
        delay_at(Boundary::kInject);
        return mux_.inject_at(ord, in_port, bytes, &ctx_);
      };
      hooks.on_update_confirmed = [this](std::uint64_t cookie, SimTime) {
        if (cookie == awaited_) confirmed_at_ = now_ns();
      };
      hooks.on_update_failed = [this](std::uint64_t, SimTime) {
        ++update_failures_;
      };
      hooks.on_verdict = [this, sw](std::uint64_t cookie, RuleState state,
                                    openflow::Epoch) {
        const bool seeded = failed_.contains(key(sw, cookie));
        if (!seeded && state != RuleState::kConfirmed) ++false_verdicts_;
        if (seeded && state == RuleState::kFailed) {
          detected_.emplace(key(sw, cookie), queue_.now());
        }
      };
      Monitor* mon = fleet_->add_shard(sw, std::move(hooks));
      mux_.register_monitor(sw, mon);
      mux_.set_switch_sender(sw, [this](const openflow::Message& m) {
        Span span(Layer::kLoopback);
        queue_packet_out(m);
      });
      for (const openflow::Rule& r :
           monocle::workloads::l3_host_routes_even(kRulesPerSwitch,
                                                   view_.ports(sw))) {
        mon->seed_rule(r);
        rules_.push_back({sw, r.cookie});
      }
    }

    // Seeded failures: the data plane silently drops these rules' probes.
    const std::size_t failures = static_cast<std::size_t>(
        std::ceil(kFailedShare * static_cast<double>(rules_.size())));
    std::vector<std::size_t> order(rules_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (std::size_t i = 0; i < failures; ++i) {
      failed_.insert(key(rules_[order[i]].sw, rules_[order[i]].cookie));
    }

    {
      Span span(Layer::kPrepare);
      fleet_->prepare();
    }
    for (const SwitchId sw : dpids) {
      const Monitor& mon = *fleet_->monitor(sw);
      for (const openflow::Rule& r : mon.expected_table().rules()) {
        if (mon.rule_state(r.cookie) != RuleState::kConfirmed) continue;
        set_catch_point(sw, r);
      }
    }
    // The plain add_shard overload leaves route warming to the host.
    mux_.warm_routes();
  }

  ~SweepRig() override {
    fleet_->stop();
    fleet_.reset();  // before the runtime, mux and stores it points into
  }

  Fleet& fleet() override { return *fleet_; }
  monocle::telemetry::TelemetryHub& hub() override { return hub_; }
  monocle::telemetry::CheckpointStore& store() override { return store_; }
  Coverage& coverage() override { return coverage_; }
  std::uint64_t coverage_target() override {
    return rules_.size() - failed_.size();
  }
  [[nodiscard]] double steady_share() const override { return 0.75; }

  std::size_t round() override {
    const std::size_t injected = start_round(*fleet_);
    step(kRoundStep);
    return injected;
  }

  UpdateOutcome update() override {
    if (cycle_.at_cycle_start()) {
      // Each cycle of the stream runs on one seeded switch, over its
      // healthy routes.
      cycle_sw_ = rules_[std::uniform_int_distribution<std::size_t>(
                             0, rules_.size() - 1)(rng_)]
                      .sw;
      cycle_rules_.clear();
      for (const openflow::Rule& r : monocle::workloads::l3_host_routes_even(
               kRulesPerSwitch, view_.ports(cycle_sw_))) {
        if (!failed_.contains(key(cycle_sw_, r.cookie))) {
          cycle_rules_.push_back(r);
        }
      }
    }
    const SwitchId sw = cycle_sw_;
    const openflow::FlowMod fm = cycle_.next(cycle_rules_, view_.ports(sw));
    // The stand-in data plane follows the update at once.
    if (fm.command == openflow::FlowModCommand::kDeleteStrict) {
      catch_.erase(key(sw, fm.cookie));
    } else {
      set_catch_point(sw, fm.rule());
    }
    if (!live_.contains(sw)) {
      live_[sw] = monocle::workloads::l3_host_routes_even(kRulesPerSwitch,
                                                          view_.ports(sw));
    }
    apply_flow_mod(live_[sw], fm);

    Monitor& mon = *fleet_->monitor(sw);
    awaited_ = fm.cookie;
    confirmed_at_ = 0;
    const std::uint64_t failures0 = update_failures_;
    UpdateOutcome out;
    const auto gen0 = mon.stats().generation_time;
    const std::int64_t t0 = now_ns();
    {
      Span span(Layer::kFlowMod, sw, fm.cookie);
      delay_at(Boundary::kFlowMod);
      fleet_->route_flow_mod(sw, fm);
      out.call_gen_ns = (mon.stats().generation_time - gen0).count();
      if constexpr (kTraced) trace::child(Layer::kSat, out.call_gen_ns);
    }
    out.call_ns = now_ns() - t0;
    // Writes beside reads: the fleet keeps verifying, round after round,
    // while the update confirms.  Every round here carries the same load
    // (many switches' bursts), so the latency stays unimodal.
    for (int i = 0; i < kConfirmRounds && mon.pending_update_count() > 0;
         ++i) {
      round();
    }
    out.confirmed = confirmed_at_ != 0 && mon.pending_update_count() == 0 &&
                    update_failures_ == failures0;
    out.latency_ns = out.confirmed ? confirmed_at_ - t0 : 0;
    awaited_ = 0;
    return out;
  }

  bool drain() override {
    for (int i = 0; i < kDrainSteps; ++i) {
      if (fleet_->outstanding_probes() == 0 && pending_updates() == 0) {
        return true;
      }
      step(kRoundStep);
    }
    return fleet_->outstanding_probes() == 0 && pending_updates() == 0;
  }

  std::vector<std::uint64_t> prefix(Result& r) override {
    // Run rounds until every seeded failure is detected or the simulated
    // detection bound has passed, then check the bound.
    const SimTime bound = detection_bound();
    const SimTime elapsed = warm_until_detected(bound);
    r.attempted += failed_.size();
    std::size_t late = 0;
    for (const std::uint64_t k : failed_) {
      const auto it = detected_.find(k);
      late += it == detected_.end() || it->second > bound;
    }
    if (late > 0) {
      r.fail(std::to_string(late) + " seeded failures not detected within " +
                 std::to_string(bound / kMillisecond) + " simulated ms",
             late);
    }
    std::vector<std::uint64_t> sig = signature();
    sig.push_back(elapsed);
    return sig;
  }

  void warm() override { warm_until_detected(detection_bound()); }

  void final_checks(Result& r) override {
    std::uint64_t wrong = 0;
    for (const Target& t : rules_) {
      const Monitor& mon = *fleet_->monitor(t.sw);
      if (mon.expected_table().find_by_cookie(t.cookie) == nullptr) {
        continue;  // deleted by the last, unfinished update cycle
      }
      const RuleState state = mon.rule_state(t.cookie);
      const bool seeded = failed_.contains(key(t.sw, t.cookie));
      wrong += seeded ? state != RuleState::kFailed
                      : state != RuleState::kConfirmed;
    }
    r.attempted += rules_.size();
    // Tables the update stream touched hold exactly what it sent.
    for (const auto& [sw, rules] : live_) {
      std::vector<openflow::Rule> expected;
      for (const openflow::Rule& rule :
           fleet_->monitor(sw)->expected_table().rules()) {
        if ((rule.cookie >> 48) == 0) expected.push_back(rule);
      }
      r.check(same_rules(expected, rules),
              "expected table of switch " + std::to_string(sw) +
                  " differs from the update stream's own view");
    }
    if (wrong > 0) {
      r.fail(std::to_string(wrong) + " rules misclassified at the end", wrong);
    }
    if (false_verdicts_ > 0) {
      r.fail(std::to_string(false_verdicts_) +
                 " verdicts left kConfirmed for rules that did not fail",
             false_verdicts_);
    }
  }

  void fill_trace(TraceInputs& in) override { in.timer_ops = runtime_.ops(); }

 private:
  // An update is given up after update_give_up (10 s simulated, 1000
  // rounds); the wait stops a little later.
  static constexpr int kConfirmRounds = 1100;
  static constexpr int kDrainSteps = 1000;

  struct Target {
    SwitchId sw = 0;
    std::uint64_t cookie = 0;
  };
  struct CatchPoint {
    SwitchId catcher = 0;
    std::uint16_t in_port = 0;
    std::uint32_t seen = 0;  // Coverage generation slot
    bool failed = false;     // seeded failure: the data plane drops it
  };

  /// Equal as sets of rules (tables keep their own order).
  static bool same_rules(std::vector<openflow::Rule> a,
                         std::vector<openflow::Rule> b) {
    const auto by_cookie = [](const openflow::Rule& x,
                              const openflow::Rule& y) {
      return x.cookie < y.cookie;
    };
    std::sort(a.begin(), a.end(), by_cookie);
    std::sort(b.begin(), b.end(), by_cookie);
    return a == b;
  }

  static std::uint64_t key(SwitchId sw, std::uint64_t cookie) {
    return (sw << 40) ^ cookie;
  }

  void set_catch_point(SwitchId sw, const openflow::Rule& r) {
    for (const auto& [port, rewrite] : r.outcome().emissions) {
      const auto peer = view_.peer(sw, port);
      if (!peer) break;
      CatchPoint& cp = catch_[key(sw, r.cookie)];
      cp.failed = failed_.contains(key(sw, r.cookie));
      cp.catcher = peer->sw;
      cp.in_port = peer->port;
      break;
    }
  }

  /// The stand-in data plane: parse the probe's metadata record, drop it
  /// when its rule is a seeded failure, else queue the PacketIn its
  /// catcher would raise.  Delivery is deferred so the Monitor files the
  /// probe as outstanding before it is caught.
  void queue_packet_out(const openflow::Message& m) {
    if (!m.is<openflow::PacketOut>()) return;
    const auto& po = m.as<openflow::PacketOut>();
    const auto meta = find_probe_metadata(po.data);
    if (!meta) return;
    const auto it = catch_.find(key(meta->switch_id(), meta->rule_cookie()));
    if (it == catch_.end() || it->second.failed) return;  // probe vanishes
    coverage_.note(it->second.seen);
    if (pending_in_.size() <= pending_used_) {
      pending_in_.resize(pending_used_ + 1);
      pending_catcher_.resize(pending_used_ + 1);
    }
    pending_catcher_[pending_used_] = it->second.catcher;
    openflow::PacketIn& in = pending_in_[pending_used_];
    in.in_port = it->second.in_port;
    in.data.assign(po.data.begin(), po.data.end());
    ++pending_used_;
  }

  void deliver() {
    for (std::size_t i = 0; i < pending_used_; ++i) {
      ProbeId id;
      if constexpr (kTraced) {
        Span bench(Layer::kBench);
        id = probe_id(pending_in_[i].data);
      }
      Span span(Layer::kPacketIn, id.sw_nonce, id.cookie);
      delay_at(Boundary::kPacketIn);
      mux_.on_packet_in(pending_catcher_[i], pending_in_[i]);
    }
    pending_used_ = 0;
  }

  /// Delivers the looped-back probes, advances the timers by `by`
  /// (timeouts, retries, update injections, the Fleet's own timers) and
  /// delivers again.
  void step(SimTime by) {
    Span span(Layer::kDelivery);
    deliver();
    queue_.run_until(queue_.now() + by);
    deliver();
  }

  /// Rounds until every seeded failure is detected or `bound` of
  /// simulated time passed; returns the simulated time run.
  SimTime warm_until_detected(SimTime bound) {
    SimTime elapsed = 0;
    while (elapsed <= bound && detected() < failed_.size()) {
      round();
      elapsed += kRoundStep;
    }
    return elapsed;
  }

  std::size_t pending_updates() const {
    std::size_t n = 0;
    for (const auto& [sw, mon] : fleet_->shards()) {
      n += mon->pending_update_count();
    }
    return n;
  }

  std::size_t detected() const { return detected_.size(); }

  /// Simulated-time bound on detecting a seeded failure: every scheduled
  /// shard bursts at least the budget floor once per rotation, so a rule
  /// is first probed within ceil(rules / floor) rotations; its retry train
  /// then spans probe_timeout, and K-of-N confirmation adds each
  /// confirmation probe's backoff plus its own timeout.  Two rotations of
  /// slack cover round granularity.
  SimTime detection_bound() const {
    const Fleet::Config& c = config_;
    const SimTime rotation =
        static_cast<SimTime>(fleet_->schedule().round_count()) * kRoundStep;
    const std::size_t floor = std::max<std::size_t>(1, c.budget.floor_probes);
    const SimTime cover =
        static_cast<SimTime>((kRulesPerSwitch + floor - 1) / floor) * rotation;
    SimTime kofn = 0;
    double backoff = static_cast<double>(c.monitor.confirm_backoff);
    for (int k = 0; k < c.monitor.confirm_probes; ++k) {
      kofn += static_cast<SimTime>(backoff) + c.monitor.probe_timeout;
      backoff *= c.monitor.confirm_backoff_factor;
    }
    return cover + c.monitor.probe_timeout + kofn + 2 * rotation;
  }

  /// Every rule's state plus each seeded failure's detection time, in
  /// switch order.
  std::vector<std::uint64_t> signature() const {
    std::vector<std::uint64_t> sig;
    for (const auto& [sw, mon] : fleet_->shards()) {
      sig.push_back(sw);
      for (const openflow::Rule& r : mon->expected_table().rules()) {
        sig.push_back(r.cookie);
        sig.push_back(static_cast<std::uint64_t>(mon->rule_state(r.cookie)));
      }
    }
    for (const auto& [k, when] : detected_) {
      sig.push_back(k);
      sig.push_back(static_cast<std::uint64_t>(when));
    }
    return sig;
  }

  monocle::topo::Topology topo_;
  monocle::topo::TopoView view_;
  monocle::CatchPlan plan_;
  Multiplexer mux_;
  std::mt19937_64 rng_;
  monocle::switchsim::EventQueue queue_;
  CountingRuntime runtime_{&queue_};
  Multiplexer::InjectContext ctx_;
  // Looped-back PacketIns awaiting delivery (buffers reused in place).
  std::vector<SwitchId> pending_catcher_;
  std::vector<openflow::PacketIn> pending_in_;
  std::size_t pending_used_ = 0;
  std::uint64_t awaited_ = 0;      // update cookie being confirmed
  std::int64_t confirmed_at_ = 0;  // wall clock of its confirmation
  std::uint64_t update_failures_ = 0;
  std::uint64_t false_verdicts_ = 0;
  std::map<std::uint64_t, SimTime> detected_;  // seeded key -> sim time
  monocle::telemetry::TelemetryHub hub_;
  monocle::telemetry::CheckpointStore store_;
  Fleet::Config config_;
  std::vector<Target> rules_;
  std::unordered_set<std::uint64_t> failed_;
  std::unordered_map<std::uint64_t, CatchPoint> catch_;
  UpdateCycle cycle_;
  SwitchId cycle_sw_ = 0;
  std::vector<openflow::Rule> cycle_rules_;
  std::map<SwitchId, std::vector<openflow::Rule>> live_;  // touched tables
  Coverage coverage_;
  std::unique_ptr<Fleet> fleet_;  // last: destroyed first
};

std::unique_ptr<Rig> make_sweep(std::uint64_t seed) {
  return std::make_unique<SweepRig>(seed);
}

}  // namespace

Result run_sweep() { return run_workload(&make_sweep, 2); }

}  // namespace perfbench
