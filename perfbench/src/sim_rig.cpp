#include "sim_rig.hpp"

#include <algorithm>

#include "monocle/schedule.hpp"
#include "switchsim/switch_model.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace perfbench {

namespace {

using monocle::Fleet;
using monocle::Monitor;
using monocle::RuleState;
using monocle::SwitchId;
using monocle::netbase::SimTime;
using monocle::netbase::kMillisecond;
namespace openflow = monocle::openflow;

// make_star(kLeaves): four switches, four control channels.
constexpr std::size_t kLeaves = 3;
constexpr SimTime kRoundStep = 10 * kMillisecond;  // = round_interval
constexpr int kWarmupThreads = 2;
// The hub's host routes, and a burst that covers them all, so coverage
// never depends on how the elastic budget splits a round.
constexpr std::size_t kHubRules = 2000;
constexpr std::size_t kProbesPerSwitch = 2048;
// Deterministic prefix: rounds, then four whole update cycles.
constexpr std::size_t kPrefixRounds = 40;
constexpr std::size_t kPrefixUpdates = 24;
// Simulated time an update's confirmation wait advances per step (the
// Monitor's update_probe_interval).  An update is given up after
// update_give_up (10 s simulated); the wait stops a little later.
constexpr SimTime kConfirmStep = 2 * kMillisecond;
constexpr int kMaxConfirmSteps = 5500;
// Bound on the steps a round waits for its probes to resolve (10 s).
constexpr int kMaxResolveSteps = 5000;
constexpr int kMaxDrainRounds = 1000;

/// Production rules have small cookies; the catching/filter rules the
/// Monitor installs itself carry a 16-bit tag in the top bits.
bool infrastructure(std::uint64_t cookie) { return (cookie >> 48) != 0; }

std::vector<openflow::Rule> production_rules(const openflow::FlowTable& t) {
  std::vector<openflow::Rule> out;
  for (const openflow::Rule& r : t.rules()) {
    if (!infrastructure(r.cookie)) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const openflow::Rule& a, const openflow::Rule& b) {
              return a.cookie < b.cookie;
            });
  return out;
}

}  // namespace

SimRig::SimRig(std::uint64_t seed)
    : topo_(monocle::topo::make_star(kLeaves)), cycle_(seed) {
  std::map<monocle::topo::NodeId, std::uint16_t> next_port;
  for (monocle::topo::NodeId n = 0; n < topo_.node_count(); ++n) {
    dpids_.push_back(n + 1);
    net_.add_switch(n + 1, monocle::switchsim::SwitchModel::ideal());
    next_port[n] = 1;
  }
  for (monocle::topo::NodeId a = 0; a < topo_.node_count(); ++a) {
    for (const monocle::topo::NodeId b : topo_.neighbors(a)) {
      if (b < a) continue;
      net_.connect(a + 1, next_port[a]++, b + 1, next_port[b]++);
    }
  }
  plan_ = monocle::CatchPlan::build(topo_, dpids_,
                                    monocle::CatchStrategy::kSingleField);

  for (std::size_t p = 1; p <= kLeaves; ++p) {
    hub_ports_.push_back(static_cast<std::uint16_t>(p));
  }
  hub_rules_ = monocle::workloads::l3_host_routes_even(kHubRules, hub_ports_);
  live_ = hub_rules_;

  Fleet::Config config;
  apply_production_profile(config, &hub_, &store_);
  config.round_interval = kRoundStep;
  config.probes_per_switch = kProbesPerSwitch;
  config.warmup_threads = kWarmupThreads;
  fleet_ = std::make_unique<Fleet>(std::move(config), &rt_, &net_, &plan_);
  fleet_->enable_supervision();
  {
    Span span(Layer::kSchedule);
    fleet_->set_schedule(monocle::RoundSchedule::build(topo_, dpids_));
  }
}

void SimRig::start(
    std::vector<std::unique_ptr<monocle::channel::SwitchBackend>> backends,
    const std::function<void()>& connect) {
  backends_ = std::move(backends);
  for (std::size_t i = 0; i < dpids_.size(); ++i) {
    const SwitchId sw = dpids_[i];
    traced_.push_back(
        std::make_unique<TracedBackend>(*backends_[i], Layer::kSend));
    const monocle::SwitchOrdinal ord = mux_.intern(sw);
    Monitor::Hooks hooks;
    hooks.inject = [this, ord](std::uint16_t in_port,
                               std::span<const std::uint8_t> bytes) {
      note_inject(bytes);
      ProbeId id;
      if constexpr (kTraced) {
        Span bench(Layer::kBench);
        id = probe_id(bytes);
      }
      Span span(Layer::kInject, id.sw_nonce, id.cookie);
      delay_at(Boundary::kInject);
      return mux_.inject_at(ord, in_port, bytes);
    };
    hooks.on_update_confirmed = [this](std::uint64_t cookie, SimTime) {
      ++confirms_;
      last_confirm_ = now_ns();
      confirmed_cookies_.push_back(cookie);
    };
    hooks.on_update_failed = [this](std::uint64_t, SimTime) {
      ++update_failures_;
    };
    hooks.on_verdict = [this](std::uint64_t, RuleState state, openflow::Epoch) {
      false_verdicts_ += state != RuleState::kConfirmed;  // nothing fails here
    };
    fleet_->add_shard(sw, *traced_.back(), mux_, std::move(hooks));
  }
  for (auto& b : backends_) b->start();
  connect();
  Monitor& hub = *fleet_->monitor(kHub);
  for (const openflow::Rule& r : hub_rules_) {
    hub.seed_rule(r);
    net_.at(kHub)->mutable_dataplane().add(r);
  }
  {
    Span span(Layer::kPrepare);
    fleet_->prepare();
  }
  // Let the pre-installed catching rules reach the data plane before the
  // first round (Fleet::start's warm-up).
  advance(Fleet::Config{}.warmup);
}

void SimRig::teardown() {
  if (fleet_) fleet_->stop();
  fleet_.reset();
  for (auto& b : backends_) b->stop();
  traced_.clear();
  backends_.clear();
}

void SimRig::note_inject(std::span<const std::uint8_t> bytes) {
  if (!coverage_.active()) return;
  Span span(Layer::kBench);
  const auto meta = find_probe_metadata(bytes);
  if (meta) coverage_.note(meta->switch_id(), meta->rule_cookie());
}

std::uint64_t SimRig::coverage_target() {
  std::uint64_t n = 0;
  for (const auto& [sw, mon] : fleet_->shards()) {
    n += mon->monitorable_rule_count();
  }
  return n;
}

std::size_t SimRig::round() {
  const std::size_t injected = start_round(*fleet_);
  // Closed loop: the round ends once every probe it injected resolved.
  // The simulated switches serialize PacketOuts (SwitchModel::ideal: 20k/s),
  // so a burst of a whole table can outlast one round interval.
  advance(kRoundStep);
  for (int i = 0; i < kMaxResolveSteps && fleet_->outstanding_probes() > 0;
       ++i) {
    advance(kConfirmStep);
  }
  return injected;
}

UpdateOutcome SimRig::update() {
  const openflow::FlowMod fm = cycle_.next(hub_rules_, hub_ports_);
  apply_flow_mod(live_, fm);
  const auto xid = static_cast<std::uint32_t>(++updates_sent_);
  Monitor& hub = *fleet_->monitor(kHub);
  const std::uint64_t confirms0 = confirms_;
  const std::uint64_t failures0 = update_failures_;
  UpdateOutcome out;
  const auto gen0 = hub.stats().generation_time;
  const std::int64_t t0 = now_ns();
  {
    Span span(Layer::kFlowMod, kHub, fm.cookie);
    delay_at(Boundary::kFlowMod);
    fleet_->route_flow_mod(kHub, fm, xid);
    out.call_gen_ns = (hub.stats().generation_time - gen0).count();
    if constexpr (kTraced) trace::child(Layer::kSat, out.call_gen_ns);
  }
  out.call_ns = now_ns() - t0;
  for (int i = 0; i < kMaxConfirmSteps && hub.pending_update_count() > 0;
       ++i) {
    advance(kConfirmStep);
  }
  out.confirmed = hub.pending_update_count() == 0 && confirms_ > confirms0 &&
                  update_failures_ == failures0;
  out.latency_ns = out.confirmed ? last_confirm_ - t0 : 0;
  // Writes beside reads: a fleet round probes the same tables before the
  // next update (outside the update's latency).
  round();
  return out;
}

bool SimRig::drain() {
  for (int i = 0; i < kMaxDrainRounds; ++i) {
    std::size_t pending = 0;
    for (const auto& [sw, mon] : fleet_->shards()) {
      pending += mon->pending_update_count();
    }
    if (fleet_->outstanding_probes() == 0 && pending == 0) return true;
    advance(kRoundStep);
  }
  return false;
}

void SimRig::warm() {
  for (std::size_t i = 0; i < kPrefixRounds; ++i) round();
}

std::vector<std::uint64_t> SimRig::prefix(Result& r) {
  confirmed_cookies_.clear();
  for (std::size_t i = 0; i < kPrefixRounds; ++i) round();
  std::size_t unconfirmed = 0;
  for (std::size_t i = 0; i < kPrefixUpdates; ++i) {
    unconfirmed += !update().confirmed;
  }
  r.attempted += kPrefixUpdates;
  if (unconfirmed > 0) {
    r.fail(std::to_string(unconfirmed) + " prefix updates not confirmed",
           unconfirmed);
  }
  return signature();
}

std::vector<std::uint64_t> SimRig::signature() const {
  std::vector<std::uint64_t> sig;
  for (const auto& [sw, mon] : fleet_->shards()) {
    sig.push_back(sw);
    sig.push_back(mon->epoch());
    for (const openflow::Rule& r : mon->expected_table().rules()) {
      sig.push_back(r.cookie);
      sig.push_back(static_cast<std::uint64_t>(mon->rule_state(r.cookie)));
    }
  }
  sig.push_back(0xFFFF'FFFF'FFFF'FFFFull);
  sig.insert(sig.end(), confirmed_cookies_.begin(), confirmed_cookies_.end());
  return sig;
}

void SimRig::final_checks(Result& r) {
  if (false_verdicts_ > 0) {
    r.fail(std::to_string(false_verdicts_) +
               " verdicts left kConfirmed although no rule failed",
           false_verdicts_);
  }
  // The hub's expected table, its simulated data plane and the stream's
  // own view of the live rules agree, infrastructure aside.
  const std::vector<openflow::Rule> expected =
      production_rules(fleet_->monitor(kHub)->expected_table());
  const std::vector<openflow::Rule> dataplane =
      production_rules(net_.at(kHub)->dataplane());
  std::vector<openflow::Rule> live = live_;
  std::sort(live.begin(), live.end(),
            [](const openflow::Rule& a, const openflow::Rule& b) {
              return a.cookie < b.cookie;
            });
  r.attempted += live.size();
  r.check(expected == live,
          "hub expected table differs from the update stream's own view");
  r.check(expected == dataplane,
          "hub expected table differs from its simulated data plane");
  // Every rule of every shard still classified as at the start: confirmed
  // or (never probeable) unmonitorable.
  std::uint64_t wrong = 0;
  for (const auto& [sw, mon] : fleet_->shards()) {
    for (const openflow::Rule& rule : mon->expected_table().rules()) {
      const RuleState s = mon->rule_state(rule.cookie);
      wrong += s != RuleState::kConfirmed && s != RuleState::kUnmonitorable;
    }
  }
  if (wrong > 0) {
    r.fail(std::to_string(wrong) + " rules misclassified at the end", wrong);
  }
}

void SimRig::fill_trace(TraceInputs& in) {
  in.timer_ops = rt_.ops();
  in.sim_events = sim_events_;
}

}  // namespace perfbench
