// Figure 14 (extension): elastic cost-aware probe scheduling + endurance.
//
// A uniform scheduler spends probes_per_switch on every co-scheduled
// switch per round.  On a skewed fleet — a minority of HOT shards carrying
// most of the rules and all of the churn — that starves exactly the shards
// that matter: a hot shard's steady cycle takes rules/burst rounds, so its
// staleness and its time-to-detection grow with the skew while cold shards
// burn the same budget re-verifying rules that never change.  The elastic
// BudgetScheduler (budget.hpp, DESIGN.md §14) re-divides the SAME global
// round budget from pressure signals each round.
//
// This bench builds two identical loopback fleets (uniform vs elastic,
// equal global probe budget, identical churn sequence) over a skewed
// rocketfuel fabric and gates.  Both run the Fleet's one scheduler; the
// uniform baseline sets its four pressure weights to 0, which gives every
// scheduled shard exactly probes_per_switch each round.  The gates:
//
//   * p95 steady rule-staleness (sampled across the churn phase) must be
//     >= 2x better under the elastic scheduler,
//   * mean time-to-detection of rule failures injected on hot shards must
//     be >= 1.5x faster,
//   * the elastic steady cycle stays at 0 heap allocations per probe
//     (counting allocator linked into this binary),
//   * classification parity: after the failure phase settles, both fleets
//     agree on every (switch, cookie) -> state verdict.
//
// --soak runs the endurance mode instead: one elastic fleet under hours'
// worth of compressed churn, fail/heal cycles and cookie rotation, gating
// flat memory (<= +25% + 64 MB slack over the warmed baseline), stable
// confirm latency, bounded rule_floor_ maps, and bounded live sessions
// (every shard's session variable slots stay within twice its live
// variables, and its live arena words at or below their value after
// warm-up, sampled every round).  The memory gate reads RSS, except
// under ASan or TSan: their allocators keep freed blocks resident (ASan's
// quarantine holds up to 256 MB to catch use-after-free), so there it
// reads the allocator's live heap bytes with the same bound.  Results land
// in BENCH_elastic.json either way.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/fastpath_harness.hpp"
#include "monocle/fleet.hpp"
#include "monocle/schedule.hpp"
#include "netbase/alloc_counter.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FIG14_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FIG14_SANITIZER_HEAP 1
#endif
#endif
#ifdef FIG14_SANITIZER_HEAP
// The sanitizer runtime's allocator statistics, as LLVM's
// <sanitizer/allocator_interface.h> declares them (GCC ships no such header).
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace {

using namespace monocle;
using netbase::SimTime;
using netbase::kMillisecond;

constexpr SimTime kRoundInterval = 10 * kMillisecond;

/// Reads VmRSS from /proc/self/status; 0 when unavailable (non-Linux).
std::size_t vm_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// What the soak's flat-memory gate reads, in kB: the sanitizer
/// allocator's live bytes when one is linked (its RSS includes the
/// quarantine of freed blocks), VmRSS otherwise.
#ifdef FIG14_SANITIZER_HEAP
constexpr const char* kGatedMemory = "live heap";
std::size_t gated_memory_kb() {
  return __sanitizer_get_current_allocated_bytes() / 1024;
}
#else
constexpr const char* kGatedMemory = "RSS";
std::size_t gated_memory_kb() { return vm_rss_kb(); }
#endif

/// A Fleet over the fig11 loopback: probes inject through a Multiplexer and
/// the synthesized PacketIns are delivered after each round, so the whole
/// monitoring stack runs for real with the data plane shortcut.  Skew: every
/// hot_every-th switch carries hot_rules rules, the rest cold_rules.
class FleetLoopRig {
 public:
  struct Options {
    std::size_t cold_rules = 8;
    std::size_t hot_rules = 64;
    std::size_t hot_every = 10;  ///< every Nth switch is hot
    std::size_t probes_per_switch = 4;
    /// False: the uniform baseline (all four pressure weights at 0).
    bool elastic = false;
  };

  FleetLoopRig(const topo::Topology& topo, Options opts)
      : view_(topo), opts_(opts) {
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids_.push_back(view_.dpid_of(n));
    }
    plan_ = CatchPlan::build(topo, dpids_, CatchStrategy::kSingleField);
    mux_ = std::make_unique<Multiplexer>(&view_);
    RoundSchedule schedule = RoundSchedule::build(topo, dpids_);

    Fleet::Config cfg;
    cfg.monitor.probe_timeout = 12 * kMillisecond;
    cfg.monitor.probe_retries = 2;
    cfg.monitor.confirm_probes = 0;  // Figure 4 detection profile
    cfg.round_interval = kRoundInterval;
    cfg.probes_per_switch = opts_.probes_per_switch;
    if (!opts_.elastic) {
      cfg.budget.backlog_weight = 0;
      cfg.budget.churn_weight = 0;
      cfg.budget.suspect_weight = 0;
      cfg.budget.staleness_weight = 0;
    }
    // The staleness quantum must resolve at the scale a shard is actually
    // revisited — one full schedule rotation — or every shard saturates
    // max_staleness_quanta and the signal carries no skew at all (a 2-round
    // quantum made elastic WORSE than uniform: churn weight then starved
    // the cold shards).
    cfg.budget.staleness_quantum =
        static_cast<SimTime>(schedule.round_count()) * kRoundInterval;
    fleet_ = std::make_unique<Fleet>(cfg, &runtime_, &view_, &plan_);
    schedule_rounds_ = schedule.round_count();
    schedule_ = std::move(schedule);

    for (std::size_t i = 0; i < dpids_.size(); ++i) {
      const SwitchId sw = dpids_[i];
      if (i % opts_.hot_every == 0) hot_.insert(sw);
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      const SwitchOrdinal ord = mux_->intern(sw);
      hooks.inject = [this, ord](std::uint16_t in_port,
                                 std::span<const std::uint8_t> bytes) {
        return mux_->inject_at(ord, in_port, bytes);
      };
      hooks.on_update_confirmed = [this](std::uint64_t,
                                         netbase::SimTime latency) {
        confirm_latencies_.push_back(static_cast<double>(latency) / 1e6);
      };
      Monitor* mon = fleet_->add_shard(sw, std::move(hooks));
      mux_->register_monitor(sw, mon);
      mux_->set_switch_sender(sw, [this](const openflow::Message& m) {
        queue_packet_out(m);
      });
      const std::size_t n_rules =
          hot_.contains(sw) ? opts_.hot_rules : opts_.cold_rules;
      auto& rules = rules_[sw];
      for (const openflow::Rule& r :
           workloads::l3_host_routes_even(n_rules, view_.ports(sw))) {
        mon->seed_rule(r);
        rules.push_back(r);
      }
    }

    fleet_->set_schedule(std::move(schedule_));
    fleet_->prepare();

    for (const SwitchId sw : dpids_) {
      const Monitor& mon = *fleet_->monitor(sw);
      for (const openflow::Rule& r : mon.expected_table().rules()) {
        if (mon.rule_state(r.cookie) != RuleState::kConfirmed) continue;
        add_catch_point(sw, r);
      }
    }
  }

  ~FleetLoopRig() { fleet_->stop(); }

  /// One fleet round + loopback delivery + one round interval of timers.
  std::size_t step() {
    const std::size_t injected = fleet_->start_round();
    deliver_pending();
    runtime_.advance(kRoundInterval);
    deliver_pending();
    return injected;
  }

  /// Benign modify churn: re-sends rule `idx % rules` of the `which`-th hot
  /// shard with identical semantics (same cookie/match/actions), so the
  /// delta/confirm machinery runs at full cost while catch points stay
  /// valid.  Identical call sequences give identical churn to both rigs.
  void churn_modify(std::size_t which, std::size_t idx) {
    const SwitchId sw = hot_ids()[which % hot_ids().size()];
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

  /// Cookie rotation (endurance): deletes rule `idx` of a hot shard and
  /// re-adds it under a fresh cookie — the modify-heavy stream shape that
  /// used to grow rule_floor_ and the last-probed map without bound.
  void churn_rotate(std::size_t which, std::size_t idx) {
    const SwitchId sw = hot_ids()[which % hot_ids().size()];
    auto& rules = rules_.at(sw);
    openflow::Rule& r = rules[idx % rules.size()];
    openflow::FlowMod del;
    del.match = r.match;
    del.cookie = r.cookie;
    del.command = openflow::FlowModCommand::kDelete;
    del.priority = r.priority;
    fleet_->route_flow_mod(sw, del, next_xid_++);
    catch_points_.erase(bench::FastPathRig::catch_key(sw, r.cookie));
    openflow::FlowMod add;
    add.match = r.match;
    add.cookie = next_cookie_++;
    add.command = openflow::FlowModCommand::kAdd;
    add.priority = r.priority;
    add.actions = r.actions;
    fleet_->route_flow_mod(sw, add, next_xid_++);
    r = add.rule();
    add_catch_point(sw, r);
  }

  /// Failure injection: probes of (sw, cookie) vanish in the loopback.
  void fail_rule(SwitchId sw, std::uint64_t cookie) {
    dropped_.insert(bench::FastPathRig::catch_key(sw, cookie));
  }
  void heal_rule(SwitchId sw, std::uint64_t cookie) {
    dropped_.erase(bench::FastPathRig::catch_key(sw, cookie));
  }

  [[nodiscard]] RuleState state(SwitchId sw, std::uint64_t cookie) const {
    return fleet_->monitor(sw)->rule_state(cookie);
  }

  /// Appends every steady rule's current staleness (ms) across the fleet.
  void sample_staleness(std::vector<double>& out_ms) {
    scratch_.clear();
    for (const auto& [sw, mon] : fleet_->shards()) {
      mon->collect_staleness(scratch_);
    }
    for (const SimTime s : scratch_) {
      out_ms.push_back(static_cast<double>(s) / 1e6);
    }
  }

  /// (switch, cookie, state) fingerprint for the parity gate.
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
  [[nodiscard]] SimTime now() const { return runtime_.now(); }
  [[nodiscard]] const std::vector<SwitchId>& hot_ids() const {
    if (hot_order_.empty()) {
      for (const SwitchId sw : dpids_) {
        if (hot_.contains(sw)) hot_order_.push_back(sw);
      }
    }
    return hot_order_;
  }
  [[nodiscard]] const std::vector<openflow::Rule>& rules_of(SwitchId sw) const {
    return rules_.at(sw);
  }
  [[nodiscard]] std::vector<double>& confirm_latencies() {
    return confirm_latencies_;
  }
  [[nodiscard]] std::size_t schedule_rounds() const { return schedule_rounds_; }

  [[nodiscard]] MonitorStats summed_stats() const {
    MonitorStats total;
    for (const auto& [sw, mon] : fleet_->shards()) {
      // The solver aggregate is folded on telemetry publish; with no stats
      // ring attached it would stay zero, so fold it explicitly here.
      mon->refresh_solver_stats();
      const MonitorStats& s = mon->stats();
      total.probes_injected += s.probes_injected;
      total.probes_caught += s.probes_caught;
      total.probe_cache_hits += s.probe_cache_hits;
      total.probe_cache_misses += s.probe_cache_misses;
      total.probe_invalidations += s.probe_invalidations;
      total.deltas_applied += s.deltas_applied;
      total.delta_regens += s.delta_regens;
      total.scratch_regens += s.scratch_regens;
      total.stale_probes += s.stale_probes;
      total.stale_epoch_drops += s.stale_epoch_drops;
      total.generation_time += s.generation_time;
      total.solver_sweeps += s.solver_sweeps;
      total.solver_retired_clauses += s.solver_retired_clauses;
      total.solver_retired_words += s.solver_retired_words;
      total.solver_live_words += s.solver_live_words;
      total.solver_vars += s.solver_vars;
      total.solver_retired_vars += s.solver_retired_vars;
      total.solver_live_vars += s.solver_live_vars;
      total.floor_sweeps += s.floor_sweeps;
    }
    return total;
  }

  [[nodiscard]] std::size_t rule_floor_total() const {
    std::size_t total = 0;
    for (const auto& [sw, mon] : fleet_->shards()) {
      total += mon->rule_floor_count();
    }
    return total;
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
    // A delivered PacketIn can trigger further injections (confirm trains),
    // which queue behind pending_used_ and are delivered in the same sweep.
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
  RoundSchedule schedule_;  // moved into the Fleet at the end of the ctor
  std::size_t schedule_rounds_ = 0;
  bench::SlotRuntime runtime_;
  std::unique_ptr<Multiplexer> mux_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<SwitchId> dpids_;
  std::unordered_set<SwitchId> hot_;
  mutable std::vector<SwitchId> hot_order_;
  std::unordered_map<SwitchId, std::vector<openflow::Rule>> rules_;
  std::unordered_map<std::uint64_t, bench::FastPathRig::CatchPoint>
      catch_points_;
  std::unordered_set<std::uint64_t> dropped_;
  std::vector<bench::FastPathRig::PendingIn> pending_;
  std::vector<openflow::PacketIn> pending_data_;
  std::size_t pending_used_ = 0;
  std::vector<SimTime> scratch_;
  std::vector<double> confirm_latencies_;
  std::uint32_t next_xid_ = 1000;
  std::uint64_t next_cookie_ = 1u << 20;  // clear of the seeded cookie space
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(p * v.size()));
  return v[idx];
}

struct CompareResult {
  double p95_staleness_ms = 0;
  double mean_ttd_ms = 0;
  std::uint64_t probes = 0;
  double allocs_per_probe = -1;
  std::vector<std::uint64_t> signature;
  MonitorStats stats;
};

/// The full uniform-vs-elastic protocol on one rig: warm, alloc-gated quiet
/// rounds, churned staleness sampling, then failure injection for TTD.
/// Identical call sequence for both rigs — only the four pressure weights
/// of Config::budget differ.
CompareResult run_protocol(FleetLoopRig& rig, std::size_t warm_rounds,
                           std::size_t measure_rounds, std::size_t fail_count,
                           bool alloc_gate) {
  CompareResult out;
  for (std::size_t i = 0; i < warm_rounds; ++i) rig.step();

  if (alloc_gate) {
    // Quiet steady rounds (no churn): the elastic plan/probe cycle must not
    // touch the heap once warm.
    const std::uint64_t probes0 = rig.fleet().stats().probes_injected;
    const std::uint64_t a0 = monocle::netbase::heap_allocation_count();
    for (std::size_t i = 0; i < 40; ++i) rig.step();
    const std::uint64_t allocs = monocle::netbase::heap_allocation_count() - a0;
    const std::uint64_t probes =
        rig.fleet().stats().probes_injected - probes0;
    if (monocle::netbase::alloc_counting_enabled() && probes > 0) {
      out.allocs_per_probe =
          static_cast<double>(allocs) / static_cast<double>(probes);
    }
  }

  // Churn phase: benign modifies on hot shards, staleness sampled fleetwide
  // every 5 rounds.
  std::vector<double> staleness_ms;
  const std::uint64_t probes0 = rig.fleet().stats().probes_injected;
  for (std::size_t i = 0; i < measure_rounds; ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      rig.churn_modify(i * 4 + c, i + c * 7);
    }
    rig.step();
    if (i % 5 == 4 && i > measure_rounds / 5) {
      rig.sample_staleness(staleness_ms);
    }
  }
  out.probes = rig.fleet().stats().probes_injected - probes0;
  out.p95_staleness_ms = percentile(staleness_ms, 0.95);

  // Failure phase: one victim rule on every other hot shard; TTD = injection
  // to the monitor's kFailed verdict, measured in simulated time.
  struct Victim {
    SwitchId sw;
    std::uint64_t cookie;
    SimTime t0;
    SimTime detected = 0;
  };
  std::vector<Victim> victims;
  const auto& hot = rig.hot_ids();
  for (std::size_t i = 0; i < hot.size() && victims.size() < fail_count;
       i += 2) {
    const SwitchId sw = hot[i];
    // A mid-table rule: first-in-cycle victims would flatter both rigs.
    const auto& rules = rig.rules_of(sw);
    const std::uint64_t cookie = rules[rules.size() / 2].cookie;
    rig.fail_rule(sw, cookie);
    victims.push_back({sw, cookie, rig.now(), 0});
  }
  std::size_t undetected = victims.size();
  for (std::size_t round = 0; round < 4000 && undetected > 0; ++round) {
    rig.step();
    for (Victim& v : victims) {
      if (v.detected == 0 && rig.state(v.sw, v.cookie) == RuleState::kFailed) {
        v.detected = rig.now();
        --undetected;
      }
    }
  }
  double ttd_sum = 0;
  std::size_t detected = 0;
  for (const Victim& v : victims) {
    if (v.detected == 0) continue;
    ttd_sum += static_cast<double>(v.detected - v.t0) / 1e6;
    ++detected;
  }
  out.mean_ttd_ms = detected > 0 ? ttd_sum / static_cast<double>(detected)
                                 : 1e12;  // nothing detected: fail the gate

  // Settle with the victims still failed, then fingerprint: both rigs must
  // reach the identical verdict map.
  for (std::size_t i = 0; i < 50; ++i) rig.step();
  out.signature = rig.classification_signature();
  out.stats = rig.summed_stats();
  return out;
}

struct SoakResult {
  std::size_t rounds = 0;
  std::size_t rss_base_kb = 0;
  std::size_t rss_final_kb = 0;
  /// What the memory gate reads (kGatedMemory); RSS outside sanitizers.
  std::size_t mem_base_kb = 0;
  std::size_t mem_final_kb = 0;
  double confirm_first_ms = 0;
  double confirm_second_ms = 0;
  /// Live session arena words summed over shards, after warm-up and at the
  /// end, and the shards whose live words ever rose above their warm-up
  /// value (the gate: none).
  std::uint64_t arena_words_warm = 0;
  std::uint64_t arena_words_final = 0;
  std::size_t arena_grown_shards = 0;
  /// Worst shard-and-round ratio of session variable slots to live
  /// session variables over the soak.
  double session_var_ratio_peak = 0;
  std::uint64_t floor_sweeps = 0;
  std::size_t rule_floor_total = 0;
  std::size_t rule_floor_peak_shard = 0;
  bool mem_gated = false;
  bool pass = true;
};

SoakResult run_soak(FleetLoopRig& rig, std::size_t rounds) {
  SoakResult out;
  out.rounds = rounds;
  const std::size_t warm = std::max<std::size_t>(rounds / 10, 100);
  for (std::size_t i = 0; i < warm; ++i) rig.step();
  rig.confirm_latencies().clear();
  std::unordered_map<SwitchId, std::uint64_t> arena_warm;
  for (const auto& [sw, mon] : rig.fleet().shards()) {
    mon->refresh_solver_stats();
    arena_warm[sw] = mon->stats().solver_live_words;
    out.arena_words_warm += mon->stats().solver_live_words;
  }
  std::unordered_set<SwitchId> arena_grown;
  out.rss_base_kb = vm_rss_kb();
  out.mem_base_kb = gated_memory_kb();
  out.mem_gated = out.mem_base_kb > 0;

  std::size_t half_mark = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    // Compressed endurance load: steady modify churn concentrated on two
    // shards (hours' worth of per-session query aging squeezed into the
    // run — spreading it fleetwide would age every session a little and
    // none enough to test the session-variable bound), a fleetwide trickle,
    // periodic cookie rotation (the floor-growth shape), fail/heal cycles.
    rig.churn_modify(i % 2, i / 3);
    rig.churn_modify(i % 2, 7 + i / 2);
    if (i % 7 == 0) rig.churn_modify(i * 31 + 5, i / 2);
    if (i % 50 == 10) rig.churn_rotate(i / 50, i);
    if (i % 400 == 100) {
      const auto& hot = rig.hot_ids();
      const SwitchId sw = hot[(i / 400) % hot.size()];
      rig.fail_rule(sw, rig.rules_of(sw).front().cookie);
    }
    if (i % 400 == 300) {
      const auto& hot = rig.hot_ids();
      const SwitchId sw = hot[(i / 400) % hot.size()];
      rig.heal_rule(sw, rig.rules_of(sw).front().cookie);
    }
    rig.step();
    if (i == rounds / 2) half_mark = rig.confirm_latencies().size();
    for (const auto& [sw, mon] : rig.fleet().shards()) {
      mon->refresh_solver_stats();
      const MonitorStats& s = mon->stats();
      if (s.solver_live_words > arena_warm[sw]) arena_grown.insert(sw);
      if (s.solver_live_vars == 0) continue;
      out.session_var_ratio_peak = std::max(
          out.session_var_ratio_peak,
          static_cast<double>(s.solver_vars) /
              static_cast<double>(s.solver_live_vars));
    }
  }

  out.rss_final_kb = vm_rss_kb();
  out.mem_final_kb = gated_memory_kb();
  const auto& lat = rig.confirm_latencies();
  const auto mean_range = [&](std::size_t b, std::size_t e) {
    if (e <= b) return 0.0;
    double s = 0;
    for (std::size_t i = b; i < e; ++i) s += lat[i];
    return s / static_cast<double>(e - b);
  };
  out.confirm_first_ms = mean_range(0, half_mark);
  out.confirm_second_ms = mean_range(half_mark, lat.size());

  const MonitorStats stats = rig.summed_stats();
  out.arena_words_final = stats.solver_live_words;
  out.arena_grown_shards = arena_grown.size();
  out.floor_sweeps = stats.floor_sweeps;
  out.rule_floor_total = rig.rule_floor_total();
  for (const auto& [sw, mon] : rig.fleet().shards()) {
    out.rule_floor_peak_shard =
        std::max(out.rule_floor_peak_shard, mon->rule_floor_count());
  }

  if (out.mem_gated) {
    const std::size_t limit =
        out.mem_base_kb + out.mem_base_kb / 4 + 64 * 1024;
    if (out.mem_final_kb > limit) {
      std::printf("\nFAIL: soak %s grew %zu -> %zu kB (limit %zu)\n",
                  kGatedMemory, out.mem_base_kb, out.mem_final_kb, limit);
      out.pass = false;
    }
  }
  if (out.confirm_first_ms > 0 &&
      out.confirm_second_ms > out.confirm_first_ms * 3.0 + 1.0) {
    std::printf("\nFAIL: confirm latency degraded %.3f -> %.3f ms\n",
                out.confirm_first_ms, out.confirm_second_ms);
    out.pass = false;
  }
  if (out.rule_floor_peak_shard > 4096) {
    std::printf("\nFAIL: rule_floor_ grew to %zu entries on one shard\n",
                out.rule_floor_peak_shard);
    out.pass = false;
  }
  // Churned sessions answer thousands of queries; without variable
  // recycling every query would add its variables for good.
  if (out.session_var_ratio_peak > 2.0) {
    std::printf("\nFAIL: session variables grew to %.2fx the live ones\n",
                out.session_var_ratio_peak);
    out.pass = false;
  }
  // Sessions are never rebuilt: each sweep retires its query's clauses, so
  // a churned session's live arena must not outgrow its warmed size.
  if (out.arena_grown_shards > 0) {
    std::printf("\nFAIL: live session arena grew past its warm-up size on "
                "%zu shards\n",
                out.arena_grown_shards);
    out.pass = false;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const bool soak = monocle::bench::flag_present(argc, argv, "soak");
  const auto shards = static_cast<std::size_t>(monocle::bench::flag_int(
      argc, argv, "shards", soak ? 60 : (quick ? 80 : 500)));
  const auto soak_rounds = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "soak-rounds", quick ? 800 : 3000));

  const topo::Topology topo = topo::make_rocketfuel_as(shards, 2026);

  if (soak) {
    std::printf("=== Figure 14 soak: elastic fleet endurance "
                "(%zu shards, %zu rounds%s) ===\n",
                shards, soak_rounds, quick ? ", --quick" : "");
    FleetLoopRig::Options opts;
    opts.elastic = true;
    opts.hot_rules = 32;
    FleetLoopRig rig(topo, opts);
    const SoakResult r = run_soak(rig, soak_rounds);
    std::printf("  RSS %zu -> %zu kB  gated %s %zu -> %zu kB  confirm "
                "%.3f -> %.3f ms  session vars <= %.2fx live  arena words "
                "%llu -> %llu (%zu shards grew)  floor sweeps %llu  floors %zu "
                "(peak shard %zu)\n",
                r.rss_base_kb, r.rss_final_kb, kGatedMemory, r.mem_base_kb,
                r.mem_final_kb, r.confirm_first_ms,
                r.confirm_second_ms, r.session_var_ratio_peak,
                static_cast<unsigned long long>(r.arena_words_warm),
                static_cast<unsigned long long>(r.arena_words_final),
                r.arena_grown_shards,
                static_cast<unsigned long long>(r.floor_sweeps),
                r.rule_floor_total, r.rule_floor_peak_shard);
    monocle::bench::print_monitor_stats("soak fleet", rig.summed_stats());
    if (r.pass) std::printf("\nPASS: endurance gates held\n");
    if (std::FILE* json = std::fopen("BENCH_elastic.json", "w")) {
      std::fprintf(json,
                   "{\n  \"fig14_soak\": {\n"
                   "    \"shards\": %zu,\n"
                   "    \"rounds\": %zu,\n"
                   "    \"rss_base_kb\": %zu,\n"
                   "    \"rss_final_kb\": %zu,\n"
                   "    \"gated_memory\": \"%s\",\n"
                   "    \"gated_base_kb\": %zu,\n"
                   "    \"gated_final_kb\": %zu,\n"
                   "    \"memory_gated\": %s,\n"
                   "    \"confirm_first_half_ms\": %.3f,\n"
                   "    \"confirm_second_half_ms\": %.3f,\n"
                   "    \"session_var_ratio_peak\": %.3f,\n"
                   "    \"arena_words_warm\": %llu,\n"
                   "    \"arena_words_final\": %llu,\n"
                   "    \"arena_grown_shards\": %zu,\n"
                   "    \"floor_sweeps\": %llu,\n"
                   "    \"rule_floor_total\": %zu\n"
                   "  },\n  \"pass\": %s\n}\n",
                   shards, r.rounds, r.rss_base_kb, r.rss_final_kb,
                   kGatedMemory, r.mem_base_kb, r.mem_final_kb,
                   r.mem_gated ? "true" : "false", r.confirm_first_ms,
                   r.confirm_second_ms, r.session_var_ratio_peak,
                   static_cast<unsigned long long>(r.arena_words_warm),
                   static_cast<unsigned long long>(r.arena_words_final),
                   r.arena_grown_shards,
                   static_cast<unsigned long long>(r.floor_sweeps),
                   r.rule_floor_total, r.pass ? "true" : "false");
      std::fclose(json);
      std::printf("  (wrote BENCH_elastic.json)\n");
    }
    return r.pass ? 0 : 1;
  }

  const std::size_t warm_rounds = quick ? 80 : 120;
  const std::size_t measure_rounds = quick ? 150 : 300;
  const std::size_t fail_count = quick ? 4 : 20;

  std::printf("=== Figure 14: elastic cost-aware probe scheduling "
              "(%zu shards, skewed 64/8 rules%s) ===\n",
              shards, quick ? ", --quick" : "");
  if (!monocle::netbase::alloc_counting_enabled()) {
    std::printf("  (allocation counting unavailable: interposer not linked)\n");
  }

  FleetLoopRig::Options uopts;
  uopts.elastic = false;
  FleetLoopRig uniform(topo, uopts);
  std::printf("  schedule: %zu rounds per rotation\n",
              uniform.schedule_rounds());
  const CompareResult u = run_protocol(uniform, warm_rounds, measure_rounds,
                                       fail_count, true);

  FleetLoopRig::Options eopts;
  eopts.elastic = true;
  FleetLoopRig elastic(topo, eopts);
  const CompareResult e = run_protocol(elastic, warm_rounds, measure_rounds,
                                       fail_count, true);

  const double staleness_ratio =
      e.p95_staleness_ms > 0 ? u.p95_staleness_ms / e.p95_staleness_ms : 0;
  const double ttd_ratio = e.mean_ttd_ms > 0 ? u.mean_ttd_ms / e.mean_ttd_ms
                                             : 0;
  const double budget_skew =
      u.probes > 0 ? static_cast<double>(e.probes) /
                         static_cast<double>(u.probes)
                   : 0;

  std::printf("  uniform: p95 staleness %8.1f ms  mean TTD %7.1f ms  "
              "probes %llu\n",
              u.p95_staleness_ms, u.mean_ttd_ms,
              static_cast<unsigned long long>(u.probes));
  std::printf("  elastic: p95 staleness %8.1f ms  mean TTD %7.1f ms  "
              "probes %llu\n",
              e.p95_staleness_ms, e.mean_ttd_ms,
              static_cast<unsigned long long>(e.probes));
  std::printf("  ratios: staleness %.2fx  TTD %.2fx  probe budget %.4f "
              "(elastic/uniform)\n",
              staleness_ratio, ttd_ratio, budget_skew);
  std::printf("  steady cycle allocs/probe: uniform %.3f  elastic %.3f\n",
              u.allocs_per_probe, e.allocs_per_probe);
  monocle::bench::print_monitor_stats("uniform fleet", u.stats);
  monocle::bench::print_monitor_stats("elastic fleet", e.stats);

  bool pass = true;
  if (staleness_ratio < 2.0) {
    std::printf("\nFAIL: p95 staleness only %.2fx better (< 2x gate)\n",
                staleness_ratio);
    pass = false;
  }
  if (ttd_ratio < 1.5) {
    std::printf("\nFAIL: time-to-detection only %.2fx faster (< 1.5x gate)\n",
                ttd_ratio);
    pass = false;
  }
  if (budget_skew < 0.95 || budget_skew > 1.05) {
    std::printf("\nFAIL: probe budgets diverged (elastic spent %.4fx of "
                "uniform; the comparison must be equal-budget)\n",
                budget_skew);
    pass = false;
  }
  if (e.allocs_per_probe > 0) {
    std::printf("\nFAIL: %.3f allocs/probe on the elastic steady cycle\n",
                e.allocs_per_probe);
    pass = false;
  }
  if (u.signature != e.signature) {
    std::printf("\nFAIL: classification parity broken (uniform and elastic "
                "verdict maps differ)\n");
    pass = false;
  }
  if (pass) {
    std::printf("\nPASS: %.2fx p95 staleness, %.2fx TTD at equal budget; "
                "0 allocs/probe; verdict parity\n",
                staleness_ratio, ttd_ratio);
  }

  if (std::FILE* json = std::fopen("BENCH_elastic.json", "w")) {
    std::fprintf(
        json,
        "{\n  \"fig14_elastic\": {\n"
        "    \"shards\": %zu,\n"
        "    \"p95_staleness_uniform_ms\": %.1f,\n"
        "    \"p95_staleness_elastic_ms\": %.1f,\n"
        "    \"staleness_ratio\": %.2f,\n"
        "    \"mean_ttd_uniform_ms\": %.1f,\n"
        "    \"mean_ttd_elastic_ms\": %.1f,\n"
        "    \"ttd_ratio\": %.2f,\n"
        "    \"probe_budget_ratio\": %.4f,\n"
        "    \"allocs_per_probe_elastic\": %.3f,\n"
        "    \"classification_parity\": %s\n"
        "  },\n  \"pass\": %s\n}\n",
        shards, u.p95_staleness_ms, e.p95_staleness_ms, staleness_ratio,
        u.mean_ttd_ms, e.mean_ttd_ms, ttd_ratio, budget_skew,
        e.allocs_per_probe, u.signature == e.signature ? "true" : "false",
        pass ? "true" : "false");
    std::fclose(json);
    std::printf("  (wrote BENCH_elastic.json)\n");
  }
  return pass ? 0 : 1;
}
