// Figure 15 (extension): crash-safe warm restart + supervised recovery.
//
// The Fleet's crash-safety plane (docs/DESIGN.md §15) claims four things,
// and this bench gates all of them on one loopback fabric:
//
//   * WARM RESTART IS CHEAP: time-to-full-coverage of a fleet restored
//     from its checkpoint store (manifest probes re-admitted, verdicts
//     seeded, journal tail replayed) is <= 0.3x the cold warm-up of the
//     identical fleet — the probe-cache manifest skips the SAT work that
//     dominates a cold prepare().  Both sides take milliseconds, so the
//     gate reads the median ratio over kPairs cold/restored pairs run in
//     one process, and prints its quartiles.
//   * RESTARTS NEVER LIE: across shard kills, supervised restores and a
//     mid-run channel tear — under 5% probe loss and live churn — not one
//     false verdict is journaled (every kFailed record names an
//     intentionally failed rule).
//   * CRASHES ARE INVISIBLE IN THE HISTORY: the crashed/restored fleet's
//     journaled verdict history is byte-identical to a never-crashed
//     control fleet driven by the same churn and failure schedule (sorted
//     per-rule; restores must neither re-raise old verdicts nor drop new
//     ones).
//   * CHECKPOINTING IS FREE ON THE HOT PATH: the steady probe cycle stays
//     at 0 heap allocations per probe with incremental checkpointing
//     enabled (counting allocator linked into this binary).
//
// Results land in BENCH_recovery.json; --quick shrinks the fabric for the
// CI smoke leg.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/fastpath_harness.hpp"
#include "monocle/checkpoint.hpp"
#include "monocle/crash_plan.hpp"
#include "monocle/fleet.hpp"
#include "monocle/schedule.hpp"
#include "netbase/alloc_counter.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "telemetry/hub.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace {

using namespace monocle;
using netbase::SimTime;
using netbase::kMillisecond;
using telemetry::CheckpointStore;
using telemetry::EventKind;
using telemetry::EventRecord;
using telemetry::TelemetryHub;

constexpr SimTime kRoundInterval = 10 * kMillisecond;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t xorshift64(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// The fig14 loopback fleet, rewired for the crash model: the telemetry hub
/// and checkpoint store live OUTSIDE the rig (they are the state that
/// survives a crash), probes can be dropped at a deterministic loss rate,
/// and construction optionally warm-restarts from the store before
/// prepare().
class RecoveryLoopRig {
 public:
  struct Options {
    std::size_t rules_per_switch = 12;
    std::size_t probes_per_switch = 4;
    /// Per-probe fabric loss, in permille (50 = 5%).  Deterministic
    /// (counter-seeded xorshift), so reruns are reruns.
    std::uint32_t loss_permille = 0;
    TelemetryHub* hub = nullptr;
    CheckpointStore* store = nullptr;
    CrashPlan* plan = nullptr;
    bool supervise = false;
    /// Warm restart: Fleet::restore() between rule seeding and prepare().
    bool restore = false;
  };

  RecoveryLoopRig(const topo::Topology& topo, const Options& opts)
      : view_(topo), opts_(opts) {
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids_.push_back(view_.dpid_of(n));
    }
    plan_ = CatchPlan::build(topo, dpids_, CatchStrategy::kSingleField);
    mux_ = std::make_unique<Multiplexer>(&view_);

    Fleet::Config cfg;
    cfg.monitor.probe_timeout = 12 * kMillisecond;
    cfg.monitor.probe_retries = 2;
    // K-of-N suspicion stays ON: under 5% loss a single exhausted retry
    // train must read as suspicion, never as a verdict — the zero-false-
    // verdict gate depends on it.
    cfg.monitor.confirm_probes = 2;
    cfg.round_interval = kRoundInterval;
    cfg.probes_per_switch = opts_.probes_per_switch;
    cfg.telemetry = opts_.hub;
    cfg.checkpoints = opts_.store;
    cfg.crash_plan = opts_.plan;
    fleet_ = std::make_unique<Fleet>(cfg, &runtime_, &view_, &plan_);
    if (opts_.supervise) {
      Fleet::SupervisorOptions sup;
      sup.missed_rounds = 2;
      fleet_->enable_supervision(sup);
    }

    for (const SwitchId sw : dpids_) {
      const SwitchOrdinal ord = mux_->intern(sw);
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      hooks.inject = [this, ord](std::uint16_t in_port,
                                 std::span<const std::uint8_t> bytes) {
        return mux_->inject_at(ord, in_port, bytes);
      };
      Monitor* mon = fleet_->add_shard(sw, std::move(hooks));
      mux_->register_monitor(sw, mon);
      mux_->set_switch_sender(sw, [this](const openflow::Message& m) {
        queue_packet_out(m);
      });
      auto& rules = rules_[sw];
      for (const openflow::Rule& r : workloads::l3_host_routes_even(
               opts_.rules_per_switch, view_.ports(sw))) {
        mon->seed_rule(r);
        rules.push_back(r);
      }
    }

    // Warm-up timing starts here: everything above (loopback mux, catch
    // plan, rule seeding) is bench plumbing paid identically by the cold
    // and the restored fleet.  The restart path being measured is
    // restore-from-store + prepare (where cold pays SAT).
    const auto t0 = std::chrono::steady_clock::now();
    if (opts_.restore) report_ = fleet_->restore();
    restore_seconds_ = seconds_since(t0);
    fleet_->prepare();
    setup_seconds_ = seconds_since(t0);

    for (const SwitchId sw : dpids_) {
      for (const openflow::Rule& r : rules_.at(sw)) add_catch_point(sw, r);
    }
    rng_ = 0x9E3779B97F4A7C15ull;
  }

  ~RecoveryLoopRig() { fleet_->stop(); }

  std::size_t step() {
    const std::size_t injected = fleet_->start_round();
    deliver_pending();
    runtime_.advance(kRoundInterval);
    deliver_pending();
    return injected;
  }

  /// Benign modify churn (identical semantics; full delta/confirm cost).
  void churn_modify(SwitchId sw, std::size_t idx) {
    const auto& rules = rules_.at(sw);
    const openflow::Rule& r = rules[idx % rules.size()];
    openflow::FlowMod fm;
    fm.match = r.match;
    fm.cookie = r.cookie;
    fm.command = openflow::FlowModCommand::kModify;
    fm.priority = r.priority;
    fm.actions = r.actions;
    fleet_->route_flow_mod(sw, fm, next_xid_++);
  }

  void fail_rule(SwitchId sw, std::uint64_t cookie) {
    dropped_.insert(bench::FastPathRig::catch_key(sw, cookie));
  }

  [[nodiscard]] bool fully_covered() const {
    for (const auto& [sw, mon] : fleet_->shards()) {
      if (mon->stats().probes_injected == 0) return false;
      for (const openflow::Rule& r : rules_.at(sw)) {
        if (mon->rule_state(r.cookie) != RuleState::kConfirmed &&
            !dropped_.contains(bench::FastPathRig::catch_key(sw, r.cookie))) {
          return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] std::vector<std::uint64_t> classification_signature() const {
    std::vector<std::uint64_t> sig;
    for (const auto& [sw, mon] : fleet_->shards()) {
      sig.push_back(sw);
      for (const openflow::Rule& r : mon->expected_table().rules()) {
        sig.push_back(r.cookie);
        sig.push_back(static_cast<std::uint64_t>(mon->rule_state(r.cookie)));
      }
    }
    return sig;
  }

  [[nodiscard]] Fleet& fleet() { return *fleet_; }
  [[nodiscard]] const std::vector<SwitchId>& dpids() const { return dpids_; }
  [[nodiscard]] const std::vector<openflow::Rule>& rules_of(SwitchId sw) const {
    return rules_.at(sw);
  }
  [[nodiscard]] const Fleet::RestoreReport& report() const { return report_; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }
  /// The Fleet::restore() share of setup_seconds() (0 for a cold fleet).
  [[nodiscard]] double restore_seconds() const { return restore_seconds_; }
  [[nodiscard]] std::size_t total_rules() const {
    return dpids_.size() * opts_.rules_per_switch;
  }

 private:
  void add_catch_point(SwitchId sw, const openflow::Rule& r) {
    for (const auto& [port, rewrite] : r.outcome().emissions) {
      const auto peer = view_.peer(sw, port);
      if (!peer) break;
      catch_points_[bench::FastPathRig::catch_key(sw, r.cookie)] =
          bench::FastPathRig::CatchPoint{peer->sw, peer->port};
      break;
    }
  }

  void queue_packet_out(const openflow::Message& m) {
    if (!m.is<openflow::PacketOut>()) return;
    const auto& po = m.as<openflow::PacketOut>();
    static constexpr std::uint8_t kMagic[4] = {0x4D, 0x4E, 0x43, 0x4C};
    const auto at = std::search(po.data.begin(), po.data.end(),
                                std::begin(kMagic), std::end(kMagic));
    if (at == po.data.end()) return;
    const auto meta = netbase::ProbeMetadataView::parse(std::span(
        po.data.data() + (at - po.data.begin()),
        po.data.size() - static_cast<std::size_t>(at - po.data.begin())));
    if (!meta) return;
    if (opts_.loss_permille > 0) {
      rng_ = xorshift64(rng_);
      if (rng_ % 1000 < opts_.loss_permille) return;  // fabric loss
    }
    const std::uint64_t key =
        bench::FastPathRig::catch_key(meta->switch_id(), meta->rule_cookie());
    if (dropped_.contains(key)) return;  // injected rule failure
    const auto it = catch_points_.find(key);
    if (it == catch_points_.end()) return;
    if (pending_.size() <= pending_used_) {
      pending_.resize(pending_used_ + 1);
      pending_data_.resize(pending_used_ + 1);
    }
    pending_[pending_used_].catcher = it->second.catcher;
    pending_[pending_used_].live = true;
    pending_data_[pending_used_].in_port = it->second.catcher_in_port;
    pending_data_[pending_used_].data.assign(po.data.begin(), po.data.end());
    ++pending_used_;
  }

  void deliver_pending() {
    for (std::size_t i = 0; i < pending_used_; ++i) {
      if (!pending_[i].live) continue;
      pending_[i].live = false;
      mux_->on_packet_in(pending_[i].catcher, pending_data_[i]);
    }
    pending_used_ = 0;
  }

  topo::TopoView view_;
  Options opts_;
  CatchPlan plan_;
  bench::SlotRuntime runtime_;
  std::unique_ptr<Multiplexer> mux_;
  std::unique_ptr<Fleet> fleet_;
  Fleet::RestoreReport report_;
  std::vector<SwitchId> dpids_;
  std::unordered_map<SwitchId, std::vector<openflow::Rule>> rules_;
  std::unordered_map<std::uint64_t, bench::FastPathRig::CatchPoint>
      catch_points_;
  std::unordered_set<std::uint64_t> dropped_;
  std::vector<bench::FastPathRig::PendingIn> pending_;
  std::vector<openflow::PacketIn> pending_data_;
  std::size_t pending_used_ = 0;
  double setup_seconds_ = 0;
  double restore_seconds_ = 0;
  std::uint64_t rng_ = 0;
  std::uint32_t next_xid_ = 5000;
};

/// Journaled SETTLED verdict history, sorted per rule (stable: a rule's
/// own transitions keep their order), serialized to bytes — the byte-parity
/// form of "what did this fleet ever conclude about any rule".  Transient
/// suspicion records (kSuspect and the kConfirmed flap-clears before any
/// failure) are excluded: they track the loss realization, not the
/// conclusion.  What must match is every kFailed raised and every heal
/// after it — a restore that re-raises an old verdict or drops a new one
/// breaks parity here.
std::vector<std::uint8_t> verdict_history_bytes(const TelemetryHub& hub) {
  std::vector<std::array<std::uint64_t, 3>> events;
  std::set<std::pair<std::uint64_t, std::uint64_t>> ever_failed;
  hub.journal().replay([&](const EventRecord& rec) {
    if (rec.kind != EventKind::kVerdict) return;
    const bool failed =
        rec.detail == static_cast<std::uint32_t>(RuleState::kFailed);
    if (failed) ever_failed.insert({rec.shard, rec.cookie});
    if (!failed && !ever_failed.contains({rec.shard, rec.cookie})) return;
    events.push_back({rec.shard, rec.cookie, rec.detail});
  });
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return std::tie(a[0], a[1]) < std::tie(b[0], b[1]);
                   });
  std::vector<std::uint8_t> bytes;
  bytes.reserve(events.size() * 24);
  for (const auto& e : events) {
    for (const std::uint64_t w : e) {
      for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
      }
    }
  }
  return bytes;
}

/// kFailed verdict records naming a rule OUTSIDE the intended victim set.
std::uint64_t false_verdicts(const TelemetryHub& hub,
                             const std::set<std::pair<std::uint64_t,
                                                      std::uint64_t>>& victims) {
  std::uint64_t n = 0;
  hub.journal().replay([&](const EventRecord& rec) {
    if (rec.kind != EventKind::kVerdict) return;
    if (rec.detail != static_cast<std::uint32_t>(RuleState::kFailed)) return;
    if (!victims.contains({rec.shard, rec.cookie})) ++n;
  });
  return n;
}

struct CrashScript {
  std::vector<std::pair<SwitchId, std::uint64_t>> victims;  // (sw, cookie)
  SwitchId kill_quiet = 0;    ///< killed shard with no victim
  SwitchId kill_victim = 0;   ///< killed shard OWNING victims[0]
  SwitchId torn = 0;          ///< mid-run control-channel tear
  std::set<SwitchId> no_churn;  ///< faulted shards, excluded in BOTH rigs
};

CrashScript make_script(const RecoveryLoopRig& rig) {
  CrashScript s;
  const auto& dpids = rig.dpids();
  for (std::size_t i = 4; i < dpids.size(); i += 8) {
    const SwitchId sw = dpids[i];
    const auto& rules = rig.rules_of(sw);
    s.victims.emplace_back(sw, rules[rules.size() / 2].cookie);
  }
  s.kill_victim = s.victims.front().first;
  s.kill_quiet = dpids[1];
  s.torn = dpids[2];
  s.no_churn = {s.kill_quiet, s.kill_victim, s.torn};
  return s;
}

/// Identical drive for control and crashed fleets: churn every round on the
/// non-faulted shards, victims failed at fail_round, then a settle phase
/// long enough for post-restore re-detection (suspicion backoff plus a few
/// schedule rotations).
void drive(RecoveryLoopRig& rig, const CrashScript& script,
           std::size_t rounds, std::size_t fail_round, std::size_t settle) {
  std::vector<SwitchId> churnable;
  for (const SwitchId sw : rig.dpids()) {
    if (!script.no_churn.contains(sw)) churnable.push_back(sw);
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round == fail_round) {
      for (const auto& [sw, cookie] : script.victims) {
        rig.fail_rule(sw, cookie);
      }
    }
    rig.churn_modify(churnable[(round * 2) % churnable.size()], round);
    rig.churn_modify(churnable[(round * 2 + 1) % churnable.size()], round / 3);
    rig.step();
  }
  for (std::size_t i = 0; i < settle; ++i) rig.step();
}

/// One cold/restored pair's wall-clock split, in seconds.
struct WarmupPair {
  double cold_prepare = 0;
  double cold_rounds = 0;   ///< rounds until full coverage
  double warm_restore = 0;  ///< Fleet::restore()
  double warm_prepare = 0;
  double warm_rounds = 0;

  [[nodiscard]] double cold() const { return cold_prepare + cold_rounds; }
  [[nodiscard]] double warm() const {
    return warm_restore + warm_prepare + warm_rounds;
  }
  [[nodiscard]] double ratio() const { return cold() > 0 ? warm() / cold() : 1; }
};

/// Linearly interpolated quantile `q` (0..1) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

constexpr std::size_t kPairs = 9;

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const auto shards = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "shards", quick ? 32 : 96));
  const auto crash_rounds = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "rounds", quick ? 380 : 420));

  const topo::Topology topo = topo::make_rocketfuel_as(shards, 2026);

  std::printf("=== Figure 15: crash-safe warm restart + supervised recovery "
              "(%zu shards%s) ===\n",
              shards, quick ? ", --quick" : "");
  if (!monocle::netbase::alloc_counting_enabled()) {
    std::printf("  (allocation counting unavailable: interposer not linked)\n");
  }
  bool pass = true;

  // --- gate 1+4: warm restart <= 0.3x cold warm-up; 0 allocs/probe -------
  // Each side is 1-25 ms of wall time on a shared host, so one ratio is a
  // draw: the gate reads the median over kPairs cold/restored pairs, each
  // restored fleet rebuilt from its own pair's cold hub and store.
  std::vector<WarmupPair> pairs;
  std::size_t cold_uncovered = 0;
  std::size_t warm_uncovered = 0;
  std::size_t map_mismatches = 0;
  std::size_t partial_restores = 0;
  double allocs_per_probe = -1;
  Fleet::RestoreReport report;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    TelemetryHub hub;        // survives the "crash" below
    CheckpointStore store;   // in-memory: durability = surviving the Fleet
    WarmupPair t;
    std::vector<std::uint64_t> cold_sig;
    {
      RecoveryLoopRig::Options opts;
      opts.hub = &hub;
      opts.store = &store;
      RecoveryLoopRig cold(topo, opts);
      const auto t0 = std::chrono::steady_clock::now();
      std::size_t rounds = 0;
      while (!cold.fully_covered() && rounds < 400) {
        cold.step();
        ++rounds;
      }
      t.cold_rounds = seconds_since(t0);
      t.cold_prepare = cold.setup_seconds();
      if (!cold.fully_covered()) ++cold_uncovered;
      // Let the incremental writer (one shard per round) cover the whole
      // fleet before the crash.
      const std::size_t rotation = cold.fleet().schedule().round_count();
      for (std::size_t i = 0; i < shards + 2 * rotation; ++i) cold.step();
      cold_sig = cold.classification_signature();
    }  // crash: fleet + monitors die; hub + store survive

    RecoveryLoopRig::Options opts;
    opts.hub = &hub;
    opts.store = &store;
    opts.restore = true;
    RecoveryLoopRig warm(topo, opts);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t rounds = 0;
    while (!warm.fully_covered() && rounds < 400) {
      warm.step();
      ++rounds;
    }
    t.warm_rounds = seconds_since(t0);
    t.warm_restore = warm.restore_seconds();
    t.warm_prepare = warm.setup_seconds() - warm.restore_seconds();
    pairs.push_back(t);
    report = warm.report();
    if (!warm.fully_covered()) ++warm_uncovered;
    if (warm.classification_signature() != cold_sig) ++map_mismatches;
    if (report.shards_restored != shards ||
        report.manifest_admitted < (shards * 12) * 8 / 10) {
      ++partial_restores;
    }
    // Steady-state alloc gate WITH checkpointing live: warm until the
    // incremental writer has touched every shard (its per-shard age nodes
    // and the store's per-key buffers are the one-time allocations), then
    // count a quiet window.
    const std::size_t rotation = warm.fleet().schedule().round_count();
    for (std::size_t i = 0; i < shards + 2 * rotation; ++i) warm.step();
    const std::uint64_t probes0 = warm.fleet().stats().probes_injected;
    const std::uint64_t a0 = monocle::netbase::heap_allocation_count();
    for (std::size_t i = 0; i < 40; ++i) warm.step();
    const std::uint64_t allocs =
        monocle::netbase::heap_allocation_count() - a0;
    const std::uint64_t probes =
        warm.fleet().stats().probes_injected - probes0;
    if (monocle::netbase::alloc_counting_enabled() && probes > 0) {
      allocs_per_probe =
          std::max(allocs_per_probe,
                   static_cast<double>(allocs) / static_cast<double>(probes));
    }
  }
  const auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const WarmupPair& t : pairs) v.push_back(field(t));
    return quantile(std::move(v), 0.5);
  };
  std::vector<double> ratios;
  for (const WarmupPair& t : pairs) ratios.push_back(t.ratio());
  const double ratio_q1 = quantile(ratios, 0.25);
  const double coverage_ratio = quantile(ratios, 0.5);
  const double ratio_q3 = quantile(ratios, 0.75);
  const double cold_s = median_of([](const WarmupPair& t) { return t.cold(); });
  const double warm_s = median_of([](const WarmupPair& t) { return t.warm(); });
  const double cold_prepare_s =
      median_of([](const WarmupPair& t) { return t.cold_prepare; });
  const double cold_rounds_s =
      median_of([](const WarmupPair& t) { return t.cold_rounds; });
  const double warm_restore_s =
      median_of([](const WarmupPair& t) { return t.warm_restore; });
  const double warm_prepare_s =
      median_of([](const WarmupPair& t) { return t.warm_prepare; });
  const double warm_rounds_s =
      median_of([](const WarmupPair& t) { return t.warm_rounds; });
  std::printf("  warm-up over %zu cold/restored pairs: restored/cold ratio "
              "median %.3f (quartiles %.3f-%.3f), gate: median <= 0.3\n",
              pairs.size(), coverage_ratio, ratio_q1, ratio_q3);
  std::printf("  where the time goes (medians, ms): cold %.3f (prepare %.3f, "
              "rounds %.3f); restored %.3f (restore %.3f, prepare %.3f, "
              "rounds %.3f)\n",
              1e3 * cold_s, 1e3 * cold_prepare_s, 1e3 * cold_rounds_s,
              1e3 * warm_s, 1e3 * warm_restore_s, 1e3 * warm_prepare_s,
              1e3 * warm_rounds_s);
  std::printf("  restore: %zu shards warm, %zu cold; %zu/%zu probes "
              "manifest-admitted (no SAT); %zu verdicts seeded\n",
              report.shards_restored, report.shards_cold,
              report.manifest_admitted,
              shards * 12, report.verdicts_seeded);
  std::printf("  steady allocs/probe with checkpointing: %.3f\n",
              allocs_per_probe);
  if (cold_uncovered + warm_uncovered > 0) {
    std::printf("\nFAIL: full coverage not reached (cold fleet in %zu, "
                "restored fleet in %zu of %zu pairs)\n",
                cold_uncovered, warm_uncovered, pairs.size());
    pass = false;
  }
  if (map_mismatches > 0) {
    std::printf("\nFAIL: restored verdict map differs from pre-crash in %zu "
                "of %zu pairs\n",
                map_mismatches, pairs.size());
    pass = false;
  }
  if (coverage_ratio > 0.3) {
    std::printf("\nFAIL: restored warm-up %.3fx of cold in the median "
                "(> 0.3x gate)\n",
                coverage_ratio);
    pass = false;
  }
  if (partial_restores > 0) {
    std::printf("\nFAIL: %zu of %zu pairs restored partially (last: %zu/%zu "
                "shards warm, %zu probes re-admitted)\n",
                partial_restores, pairs.size(), report.shards_restored, shards,
                report.manifest_admitted);
    pass = false;
  }
  if (allocs_per_probe > 0) {
    std::printf("\nFAIL: %.3f allocs/probe with checkpointing enabled\n",
                allocs_per_probe);
    pass = false;
  }

  // --- gates 2+3: kill/restore under loss + churn, vs control ------------
  const std::size_t fail_round = crash_rounds * 2 / 5;
  TelemetryHub hub_control;
  CheckpointStore store_control;
  TelemetryHub hub_crashed;
  CheckpointStore store_crashed;
  CrashPlan plan;

  RecoveryLoopRig::Options copts;
  copts.loss_permille = 50;  // 5%
  copts.hub = &hub_control;
  copts.store = &store_control;
  RecoveryLoopRig control(topo, copts);
  const CrashScript script = make_script(control);
  // The fleet only visits a shard on its schedule rotation slot, so every
  // plan window (and the settle phase) has to be sized in rotations, not
  // raw rounds — a 15-round tear on a 20-round rotation would never be
  // observed.
  const std::size_t rotation = control.fleet().schedule().round_count();

  // The crash schedule the control never sees: one quiet shard killed
  // early, the first victim's shard killed AFTER its verdict should have
  // landed, one channel torn mid-run.  All kills land after the writer's
  // first full sweep (round > shards), so the supervisor's restores must
  // be warm.
  plan.kill_shard(script.kill_quiet, crash_rounds * 3 / 10);
  plan.kill_shard(script.kill_victim, crash_rounds * 11 / 20);
  plan.tear_channel(script.torn, crash_rounds * 13 / 20, 2 * rotation + 2);

  RecoveryLoopRig::Options xopts;
  xopts.loss_permille = 50;
  xopts.hub = &hub_crashed;
  xopts.store = &store_crashed;
  xopts.plan = &plan;
  xopts.supervise = true;
  RecoveryLoopRig crashed(topo, xopts);

  const std::size_t settle = std::max<std::size_t>(80, 6 * rotation);
  drive(control, script, crash_rounds, fail_round, settle);
  drive(crashed, script, crash_rounds, fail_round, settle);

  std::set<std::pair<std::uint64_t, std::uint64_t>> victim_set(
      script.victims.begin(), script.victims.end());
  const std::uint64_t false_control = false_verdicts(hub_control, victim_set);
  const std::uint64_t false_crashed = false_verdicts(hub_crashed, victim_set);
  const auto history_control = verdict_history_bytes(hub_control);
  const auto history_crashed = verdict_history_bytes(hub_crashed);
  const bool parity = history_control == history_crashed;
  const Fleet::SupervisorStats& sup = crashed.fleet().supervisor().stats;

  std::printf("  crash phase: %zu victims, kills %llu revives %llu "
              "quarantines %llu restores %llu (cold %llu) tears %llu\n",
              script.victims.size(),
              static_cast<unsigned long long>(plan.stats().kills),
              static_cast<unsigned long long>(plan.stats().revives),
              static_cast<unsigned long long>(sup.quarantines),
              static_cast<unsigned long long>(sup.restores),
              static_cast<unsigned long long>(sup.cold_restores),
              static_cast<unsigned long long>(plan.stats().tear_rounds));
  std::printf("  false verdicts: control %llu crashed %llu; verdict-history "
              "parity: %s (%zu bytes)\n",
              static_cast<unsigned long long>(false_control),
              static_cast<unsigned long long>(false_crashed),
              parity ? "byte-identical" : "DIVERGED", history_control.size());

  if (plan.stats().kills != 2 || plan.stats().revives != 2) {
    std::printf("\nFAIL: crash schedule did not execute (kills %llu "
                "revives %llu)\n",
                static_cast<unsigned long long>(plan.stats().kills),
                static_cast<unsigned long long>(plan.stats().revives));
    pass = false;
  }
  if (sup.restores < 2) {
    std::printf("\nFAIL: supervisor restored only %llu shards warm\n",
                static_cast<unsigned long long>(sup.restores));
    pass = false;
  }
  if (false_control != 0 || false_crashed != 0) {
    std::printf("\nFAIL: false verdicts under loss+churn (control %llu, "
                "crashed %llu)\n",
                static_cast<unsigned long long>(false_control),
                static_cast<unsigned long long>(false_crashed));
    pass = false;
  }
  if (history_control.empty()) {
    std::printf("\nFAIL: no verdicts journaled at all (victims undetected)\n");
    pass = false;
  }
  if (!parity) {
    std::printf("\nFAIL: crashed fleet's verdict history diverged from the "
                "never-crashed control\n");
    pass = false;
  }
  if (control.classification_signature() !=
      crashed.classification_signature()) {
    std::printf("\nFAIL: final verdict maps differ (control vs crashed)\n");
    pass = false;
  }

  if (pass) {
    std::printf("\nPASS: %.2fx warm-up (median), full manifest "
                "re-admission, zero false verdicts, byte-identical verdict "
                "history, 0 allocs/probe with checkpointing\n",
                coverage_ratio);
  }

  if (std::FILE* json = std::fopen("BENCH_recovery.json", "w")) {
    std::fprintf(
        json,
        "{\n  \"fig15_recovery\": {\n"
        "    \"shards\": %zu,\n"
        "    \"pairs\": %zu,\n"
        "    \"cold_warmup_s\": %.4f,\n"
        "    \"warm_restart_s\": %.4f,\n"
        "    \"coverage_ratio\": %.3f,\n"
        "    \"coverage_ratio_q1\": %.3f,\n"
        "    \"coverage_ratio_q3\": %.3f,\n"
        "    \"cold_prepare_ms\": %.3f,\n"
        "    \"cold_rounds_ms\": %.3f,\n"
        "    \"warm_restore_ms\": %.3f,\n"
        "    \"warm_prepare_ms\": %.3f,\n"
        "    \"warm_rounds_ms\": %.3f,\n"
        "    \"shards_restored\": %zu,\n"
        "    \"manifest_admitted\": %zu,\n"
        "    \"verdicts_seeded\": %zu,\n"
        "    \"allocs_per_probe\": %.3f,\n"
        "    \"kills\": %llu,\n"
        "    \"supervised_restores\": %llu,\n"
        "    \"false_verdicts\": %llu,\n"
        "    \"verdict_history_parity\": %s\n"
        "  },\n  \"pass\": %s\n}\n",
        shards, pairs.size(), cold_s, warm_s, coverage_ratio, ratio_q1,
        ratio_q3, 1e3 * cold_prepare_s, 1e3 * cold_rounds_s,
        1e3 * warm_restore_s, 1e3 * warm_prepare_s, 1e3 * warm_rounds_s,
        report.shards_restored,
        report.manifest_admitted, report.verdicts_seeded, allocs_per_probe,
        static_cast<unsigned long long>(plan.stats().kills),
        static_cast<unsigned long long>(sup.restores),
        static_cast<unsigned long long>(false_crashed),
        parity ? "true" : "false", pass ? "true" : "false");
    std::fclose(json);
    std::printf("  (wrote BENCH_recovery.json)\n");
  }
  return pass ? 0 : 1;
}
