// The Monitor proxy — one per monitored switch (paper §2, §3, §4, §7).
//
// The Monitor sits on the control channel between the controller and one
// switch.  It forwards messages transparently while:
//
//  * mirroring the switch's expected flow table from the FlowMods it proxies;
//  * steady-state mode (§3): cycling through installed rules at a configured
//    probe rate, injecting a probe per rule and raising alarms for rules
//    whose probes stop coming back (with retries and a detection timeout);
//  * dynamic mode (§4): generating a probe for every rule add/modify/delete
//    the controller issues, re-injecting it until the data plane provably
//    applies the update, then acknowledging — by releasing the held-back
//    BarrierReply and/or invoking the confirmation callback;
//  * queueing updates that overlap a still-unconfirmed update (§4.2);
//  * optional drop-postponing (§4.3) for reliable drop-rule confirmation.
//
// Probes are generated with the SAT machinery of probe_batch.hpp and are
// cached per rule.  Table state is an epoch-versioned core
// (openflow::TableVersion): every FlowMod becomes a typed TableDelta at the
// one place updates enter the system, and the delta — not a whole-table
// match scan — drives precise invalidation of exactly the overlapping
// rules' cached probes, keeps the live delta-maintained ProbeBatchSessions
// in sync, and stamps per-rule epoch floors so probe echoes generated
// against an older table version are classified stale, never as failures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "monocle/catching.hpp"
#include "monocle/probe.hpp"
#include "monocle/probe_batch.hpp"
#include "monocle/runtime.hpp"
#include "netbase/probe_metadata.hpp"
#include "netbase/packet_crafter.hpp"
#include "netbase/probe_wire.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/messages.hpp"
#include "openflow/table_version.hpp"
#include "telemetry/stats_ring.hpp"

namespace monocle {

// checkpoint.hpp (which includes this header) defines these; the Monitor's
// snapshot/restore API only needs references.
struct Checkpoint;
class CheckpointWriter;

/// Lifecycle state of a monitored rule.
enum class RuleState : std::uint8_t {
  kPending,        ///< update issued, not yet confirmed in the data plane
  kConfirmed,      ///< present and behaving per the last probe
  kFailed,         ///< probes prove the rule missing/misbehaving
  kUnmonitorable,  ///< no probe exists (§3.5) — reported, not probed
  kSuspect,        ///< timed out; K-of-N confirmation probes deciding
};

/// An alarm raised by steady-state monitoring.
struct RuleAlarm {
  std::uint64_t cookie = 0;
  netbase::SimTime when = 0;
  std::size_t failed_rule_count = 0;  ///< rules currently failed (threshold gate)
};

/// Per-rule probe cache shared across Monitor instances/trials.
struct ProbeCache {
  struct Entry {
    std::optional<Probe> probe;
    ProbeFailure failure = ProbeFailure::kNone;
    /// Table epoch the entry was generated against (observability; the
    /// churn parity suite asserts entries are never served across an
    /// invalidating delta).
    openflow::Epoch epoch = 0;
    /// Crafted wire frame, built on the first injection and re-stamped
    /// (generation/nonce + checksum refresh, zero allocations) on every
    /// later one.  Dies with the entry, so delta invalidation keeps wire
    /// bytes and probe in lockstep.
    netbase::ProbeWire wire;
  };
  std::unordered_map<std::uint64_t, Entry> entries;
};

/// Aggregate Monitor statistics.
struct MonitorStats {
  std::uint64_t probes_injected = 0;
  std::uint64_t probes_caught = 0;
  std::uint64_t stale_probes = 0;
  std::uint64_t probe_generations = 0;
  std::uint64_t updates_confirmed = 0;
  std::uint64_t updates_queued = 0;
  std::uint64_t alarms = 0;
  std::uint64_t flowmods_forwarded = 0;
  std::uint64_t channel_disconnects = 0;  ///< down transitions observed
  // Probe-cache observability (delta-driven maintenance, PR 4).
  std::uint64_t probe_cache_hits = 0;     ///< probe_for served from cache
  std::uint64_t probe_cache_misses = 0;   ///< probe_for had to generate
  std::uint64_t probe_invalidations = 0;  ///< cache entries dropped by deltas
  std::uint64_t deltas_applied = 0;       ///< TableDeltas that entered this shard
  /// Cache entries (re)generated on a live session: warm-up, refills and
  /// lazy misses.
  std::uint64_t delta_regens = 0;
  /// §4.1 modification probes, answered on a throwaway session over the
  /// altered table.
  std::uint64_t scratch_regens = 0;
  /// Echoes OR timeouts classified stale because the probe's injection
  /// epoch predates a rule/channel floor.  NOT a subset of stale_probes:
  /// stale_probes counts stale ECHO arrivals only, while a timeout of an
  /// epoch-stale probe counts here alone.
  std::uint64_t stale_epoch_drops = 0;
  // Robust verdict machine (loss/flap tolerance): steady-state suspicion.
  std::uint64_t probe_retries = 0;       ///< steady re-injections after timeout
  std::uint64_t suspects_raised = 0;     ///< timeout trains escalated to suspect
  std::uint64_t suspects_confirmed = 0;  ///< suspects K-of-N-confirmed failed
  std::uint64_t flap_suppressions = 0;   ///< suspects cleared without failing
  // Confirm-latency histogram (update issued -> data-plane confirmed),
  // fixed buckets per telemetry::kConfirmLatencyBoundsNs.  Exported through
  // the telemetry ring and rendered as a Prometheus histogram.
  std::uint64_t confirm_latency_count = 0;
  std::uint64_t confirm_latency_sum_ns = 0;
  std::array<std::uint64_t, telemetry::kConfirmLatencyBuckets>
      confirm_latency_hist{};
  std::chrono::nanoseconds generation_time{0};
  // Solver/session health (PR 9): sat::SolverStats sweep counters
  // aggregated across the shard's live batch sessions.  Refreshed by
  // refresh_solver_stats() (publish_telemetry does it per round) so benches
  // and fig10/fig14 report solver health without poking sessions directly.
  std::uint64_t solver_sweeps = 0;           ///< simplify() arena sweeps
  std::uint64_t solver_retired_clauses = 0;  ///< clauses reclaimed by sweeps
  std::uint64_t solver_retired_words = 0;    ///< arena words reclaimed
  std::uint64_t solver_live_words = 0;       ///< current live arena words
  std::uint64_t solver_vars = 0;             ///< session variable slots
  std::uint64_t solver_retired_vars = 0;     ///< top-level-fixed session vars
  std::uint64_t solver_live_vars = 0;        ///< still-branchable vars
  /// Always 0: live sessions stay bounded without rebuilds (see
  /// ProbeBatchSession).  Kept for the stat readers that still report it.
  std::uint64_t session_rebuilds = 0;
  std::uint64_t floor_sweeps = 0;  ///< rule_floor_ watermark sweeps run
};

/// The per-switch monitoring proxy — Monocle's core actor (paper Figure 1).
///
/// One Monitor instance owns one switch: it mirrors the switch's expected
/// flow table from the FlowMods it forwards, generates SAT-derived probes
/// for each rule (probe_batch.hpp), injects them via
/// the Multiplexer, and classifies the echoes the Multiplexer routes back.
/// Per-rule verdicts surface as RuleState transitions and threshold-gated
/// RuleAlarms; the Localizer (localizer.hpp) and the network-wide Fleet
/// (fleet.hpp) consume them to explain failures at link/switch granularity.
/// Steady-state probing is either self-paced (start(), a probe-rate timer)
/// or externally paced in fleet rounds (start_externally_paced() +
/// steady_probe_burst()).
class Monitor {
 public:
  struct Config {
    SwitchId switch_id = 0;
    /// Steady-state probing rate (probes/second); 0 disables steady-state.
    double steady_probe_rate = 500.0;
    /// Delay before the first steady-state probe, so pre-installed catching
    /// rules have provably reached the data plane.
    netbase::SimTime steady_warmup = 200 * netbase::kMillisecond;
    /// Retries per probe before declaring failure ...
    int probe_retries = 3;
    /// ... within this total detection timeout (§8.1.1: 150 ms).
    netbase::SimTime probe_timeout = 150 * netbase::kMillisecond;
    /// Re-injection period while confirming an update (§4.1).
    netbase::SimTime update_probe_interval = 2 * netbase::kMillisecond;
    /// Simulated probe-computation latency charged before the first
    /// injection of an update probe (the paper measures 1.48–4.03 ms of
    /// real generation time; §8.2).
    netbase::SimTime generation_delay = 2 * netbase::kMillisecond;
    /// Consecutive silent injections that confirm a *negative* update
    /// (drop-rule install without drop-postponing; §3.3).
    int negative_confirm_tries = 3;
    netbase::SimTime negative_confirm_timeout = 15 * netbase::kMillisecond;
    /// K-of-N suspect confirmation (robust verdicts under probe loss): when
    /// confirm_probes > 0, a steady probe train that exhausts its retries
    /// marks the rule SUSPECT instead of failed and re-probes up to
    /// confirm_probes more times with geometric backoff.  Only
    /// confirm_failures additional absent/timed-out verdicts confirm the
    /// failure; a single present echo — or running out of confirmation
    /// probes without enough strikes — clears the suspicion (counted as a
    /// flap suppression).  0 = legacy behaviour: the first exhausted train
    /// fails the rule immediately (the Figure 4 detection-latency profile).
    int confirm_probes = 0;
    int confirm_failures = 2;
    netbase::SimTime confirm_backoff = 20 * netbase::kMillisecond;
    double confirm_backoff_factor = 2.0;
    /// Raise steady-state alarms only once this many rules are failed
    /// (Figure 4's threshold knob).
    std::size_t alarm_threshold = 1;
    /// §4.3 drop-postponing for reliable drop-rule confirmation.
    bool drop_postponing = false;
    /// Give up on an unconfirmed update after this long (alarm instead).
    netbase::SimTime update_give_up = 10 * netbase::kSecond;
    /// Table-miss behaviour of the switch (default: drop).
    openflow::ActionList miss_actions{};
    /// rule_floor_ watermark sweep trigger: sweep when the floor map grows
    /// past max(this, 2 × its post-sweep size).  Bounds the map under
    /// modify-heavy churn streams whose floors kDelete never erases.
    std::size_t floor_sweep_min = 256;
  };

  /// Host-environment callbacks.  All functions must be set before start().
  struct Hooks {
    std::function<void(const openflow::Message&)> to_switch;
    std::function<void(const openflow::Message&)> to_controller;
    /// Injects `packet` so it enters the monitored switch on `in_port`
    /// (implemented by the Multiplexer via an upstream PacketOut).  The
    /// bytes are borrowed for the duration of the call — the fast path
    /// re-stamps one cached frame per rule, so handing out ownership would
    /// force a copy per probe.  Returns false if injection is impossible.
    std::function<bool(std::uint16_t in_port,
                       std::span<const std::uint8_t> packet)>
        inject;
    /// Steady-state alarm (threshold-gated).
    std::function<void(const RuleAlarm&)> on_alarm;
    /// A dynamic update reached the data plane (cookie, confirm time).
    std::function<void(std::uint64_t, netbase::SimTime)> on_update_confirmed;
    /// A dynamic update did not confirm within update_give_up.
    std::function<void(std::uint64_t, netbase::SimTime)> on_update_failed;
    /// Observes every TableDelta this Monitor applies to its expected
    /// table, after invalidation/session sync (the Fleet chains this to
    /// route per-shard epoch streams).
    std::function<void(const openflow::TableDelta&)> on_delta;
    /// A rule's steady-state verdict changed: kSuspect when suspicion is
    /// raised, kFailed when it is confirmed, kConfirmed when a suspicion or
    /// failure clears (flap suppression / recovery).  Carries the table
    /// epoch at the transition; the Fleet journals this stream
    /// (telemetry/journal.hpp).
    std::function<void(std::uint64_t cookie, RuleState state,
                       openflow::Epoch epoch)>
        on_verdict;
    /// The control channel transitioned up/down, after the Monitor's own
    /// outage handling ran.  Fires on genuine transitions only.
    std::function<void(bool up)> on_channel_change;
  };

  Monitor(Config config, Runtime* runtime, const NetworkView* view,
          const CatchPlan* plan, Hooks hooks);

  /// Pre-installs the catching/filter rules on the switch and seeds them as
  /// confirmed in the expected table (paper §2: done before monitoring).
  void install_infrastructure();

  /// Starts the steady-state probing cycle.
  void start();

  /// Marks steady-state monitoring active WITHOUT self-scheduling probe
  /// ticks: probe pacing is driven externally (the Fleet's coloring rounds)
  /// through steady_probe_burst().  Cache warm-up/refill behaves as in
  /// start().
  void start_externally_paced();

  /// Injects up to `max_probes` steady-state probes (continuing the rule
  /// cycle); at most one probe per rule per call.  Returns the number
  /// injected.  No-op unless monitoring was started.
  std::size_t steady_probe_burst(std::size_t max_probes);

  /// Stops all monitoring activity and cancels every pending timer this
  /// Monitor scheduled (steady ticks, probe timeouts, update re-injection
  /// and give-up timers, cache refills).  Unconfirmed updates are dropped
  /// without callbacks; the expected table and rule states stay readable.
  /// Terminal: used for shard teardown, not for pause/resume.
  void stop();

  /// Batch-generates probes for every monitorable rule not yet cached (one
  /// ProbeBatchSession pass per collect group).  The Fleet calls this from
  /// its shared warm-up worker pool before starting rounds; safe to call
  /// concurrently on DIFFERENT Monitor instances.
  void warm_probe_cache();

  /// --- control-channel endpoints (wired by the host) -------------------
  void on_controller_message(const openflow::Message& msg);
  void on_switch_message(const openflow::Message& msg);

  /// The switch's control channel went down / came back up (wired by
  /// Multiplexer::bind_backend from the SwitchBackend's state handler).
  ///
  /// Down: steady probing pauses and every in-flight probe is dropped with
  /// the timeout timer cancelled — a disconnect leaves nothing dangling
  /// and no rule is failed for probes the channel ate.  Up again: the catching
  /// infrastructure is re-asserted (the switch may have restarted), the
  /// probe generation is bumped so pre-disconnect echoes read as stale, and
  /// the steady cycle re-arms from the top.  Pending dynamic updates keep
  /// their re-injection cadence (their probes flow again once the backend's
  /// queue flushes).
  void on_channel_state(bool up);
  [[nodiscard]] bool channel_up() const { return channel_up_; }

  /// A probe for this switch was caught by `catcher` on its `catcher_in_port`
  /// (routed here by the Multiplexer).  `packet` borrows from the PacketIn
  /// being dispatched (zero-copy decode); it is consumed within the call.
  void on_probe_caught(SwitchId catcher, std::uint16_t catcher_in_port,
                       const netbase::PacketView& packet,
                       const netbase::ProbeMetadata& meta);

  /// --- test/benchmark interface ----------------------------------------
  /// Adds `rule` to the expected table as already-confirmed without touching
  /// the switch (harness seeds the switch separately).
  void seed_rule(const openflow::Rule& rule);

  /// Shares a probe cache across monitors/trials.  Clears the steady cycle:
  /// its slots cache Entry* into the outgoing cache's map.
  void set_probe_cache(std::shared_ptr<ProbeCache> cache) {
    cache_ = std::move(cache);
    steady_order_.clear();
  }

  [[nodiscard]] const openflow::FlowTable& expected_table() const {
    return expected_.table();
  }
  /// The versioned table core (snapshots, epoch).
  [[nodiscard]] const openflow::TableVersion& table_version() const {
    return expected_;
  }
  /// Current table epoch (advances per applied delta and per reconnect).
  [[nodiscard]] openflow::Epoch epoch() const { return expected_.epoch(); }
  [[nodiscard]] RuleState rule_state(std::uint64_t cookie) const;
  [[nodiscard]] std::size_t failed_rule_count() const { return failed_.size(); }
  /// Cookies of rules currently failed (input for failure localization).
  [[nodiscard]] const std::unordered_set<std::uint64_t>& failed_rules() const {
    return failed_;
  }
  [[nodiscard]] std::size_t pending_update_count() const {
    return updates_.size();
  }
  /// Cookies with an in-flight dynamic update.  Their probe traffic is
  /// confirmation, not failure evidence — network localization excludes
  /// them from corroboration (fleet.hpp wires this through the
  /// SwitchFailureReport::excluded channel).
  [[nodiscard]] std::vector<std::uint64_t> pending_update_cookies() const {
    std::vector<std::uint64_t> out;
    out.reserve(updates_.size());
    for (const auto& [cookie, job] : updates_) out.push_back(cookie);
    return out;
  }
  /// Rules currently under K-of-N failure confirmation.
  [[nodiscard]] std::size_t suspect_rule_count() const {
    return suspects_.size();
  }
  /// Probes injected and not yet resolved (caught, timed out, or stale).
  [[nodiscard]] std::size_t outstanding_probe_count() const {
    return outstanding_.size();
  }
  /// Live staleness-floor entries (bounded by the watermark sweep; the
  /// modify-churn endurance test reads this).
  [[nodiscard]] std::size_t rule_floor_count() const {
    return rule_floor_.size();
  }
  /// Age of the shard's stalest steadily-monitorable rule: now minus the
  /// last steady injection for it (rules never probed age from 0).  The
  /// Fleet samples this between rounds as the BudgetScheduler's staleness
  /// pressure signal.  O(rules).
  [[nodiscard]] netbase::SimTime steady_staleness_max() const;
  /// Appends every steadily-monitorable rule's staleness (as defined above)
  /// to `out` — the fig14 bench builds its p95 from this.
  void collect_staleness(std::vector<netbase::SimTime>& out) const;
  /// Folds live-session solver stats into stats() — see MonitorStats
  /// solver fields.
  void refresh_solver_stats();
  /// Rules eligible for steady-state probing (installed, not infrastructure,
  /// not unmonitorable).
  [[nodiscard]] std::size_t monitorable_rule_count() const;
  [[nodiscard]] const MonitorStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Mutable access to the hooks, so harnesses can attach observers
  /// (alarm/confirmation callbacks) after the transport hooks are wired.
  Hooks& hooks_for_test() { return hooks_; }

  /// --- telemetry (telemetry/stats_ring.hpp; docs/DESIGN.md §13) ---------
  /// Attaches the per-shard stats ring this Monitor publishes into.  The
  /// ring must outlive the Monitor (the TelemetryHub owns it).  Set before
  /// rounds start, or from the shard's owning worker.
  void set_stats_ring(telemetry::StatsRing* ring) { stats_ring_ = ring; }
  /// Publishes one epoch-stamped StatsSample of every exported counter into
  /// the attached ring (no-op without one).  Runs automatically at the end
  /// of every externally paced burst — i.e. once per round, on the owning
  /// worker, which is what keeps every exported counter torn-read-free: the
  /// export thread only ever reads ring slots, never live MonitorStats.
  void publish_telemetry();

  /// The precise-invalidation predicate: true when the cached `entry` (of a
  /// rule other than the delta's own) provably survives `delta` — probes
  /// whose packet the
  /// changed rule cannot match (it then enters neither Hit nor either
  /// outcome prediction), kUnsupported verdicts (a property of the rule's
  /// own actions alone), and kShadowed verdicts not exposed by deleting a
  /// higher rule.  Public so the churn parity suite and fig10 exercise the
  /// exact predicate the Monitor runs.
  static bool delta_survives(const ProbeCache::Entry& entry,
                             const openflow::TableDelta& delta);

  /// --- crash-safe warm restart (checkpoint.hpp; docs/DESIGN.md §15) ------
  /// Serializes this shard's epoch-consistent snapshot into `out` (cleared,
  /// capacity reused): verdict map, per-rule floors + channel barrier floor,
  /// suspect machine, and the probe-cache manifest (infrastructure rules
  /// excluded — install_infrastructure recreates them).  Must run with the
  /// shard quiescent w.r.t. its own worker — the Fleet calls it between
  /// rounds, after the engine barrier.  Zero allocations once the buffer's
  /// capacity is warm.  `budget` is the fleet-planned elastic budget to
  /// carry (0 when budgets are static).
  void encode_checkpoint(std::vector<std::uint8_t>& out,
                         std::uint64_t budget) const;

  struct RestoreStats {
    std::size_t verdicts = 0;          ///< rule states seeded (silently)
    std::size_t suspects = 0;          ///< suspect entries re-armed
    std::size_t floors = 0;            ///< per-rule epoch floors restored
    std::size_t manifest_admitted = 0; ///< probes re-admitted from manifest
    std::size_t manifest_dropped = 0;  ///< stale/orphaned manifest entries
  };

  /// Rehydrates this Monitor from a decoded snapshot.  Call on a Monitor
  /// whose expected table has been re-seeded to controller intent (and after
  /// reset_for_recovery() when reusing a wedged instance).  Restore is
  /// silent by contract: rule states and the failed set are seeded WITHOUT
  /// firing on_verdict/on_alarm, so a verdict the fleet published before the
  /// crash is never re-raised.  The table epoch is fast-forwarded to the
  /// snapshot's and then bumped once more past it — the generation bump that
  /// classifies every pre-restart in-flight probe as a stale-epoch drop, the
  /// same barrier-floor mechanism on_channel_state uses across outages.
  /// Manifest probes are re-admitted into the cache for rules still present
  /// in the expected table and NOT named in `stale_cookies` (cookies the
  /// journal tail proves were deltaed after the snapshot); dropped entries
  /// regenerate through the normal warm-up/lazy paths.  Suspects resume
  /// their K-of-N confirmation with their strike counts intact.  Takes the
  /// snapshot by value: re-admitted manifest probes are moved into the
  /// cache, not copied.
  RestoreStats restore_checkpoint(
      Checkpoint cp,
      const std::unordered_set<std::uint64_t>* stale_cookies = nullptr);

  /// Silently seeds one rule's verdict state — no hooks, no alarms.
  /// Fleet::restore's journal-tail replay applies the verdicts the dead
  /// incarnation published AFTER its last snapshot, so the restored fleet
  /// never re-raises (or forgets) a verdict the journal already carries.
  /// kSuspect seeds as kConfirmed-unknown: the suspect machine's counters
  /// died with the crash, so the steady cycle re-judges from scratch.
  void seed_verdict(std::uint64_t cookie, RuleState state);

  /// Returns a crashed/wedged Monitor instance to a pre-restore state:
  /// stop() plus wholesale clearing of verdicts, floors, suspects, pending
  /// updates, held barriers, probe cache, steady cycle and live sessions.
  /// The expected table is RETAINED — it mirrors durable controller intent,
  /// which a shard crash does not erase.  Cumulative stats are kept
  /// (monotone across incarnations).
  void reset_for_recovery();

  /// Monotone count of externally paced bursts this Monitor has run — the
  /// per-round heartbeat Fleet::Supervisor watches: a scheduled shard whose
  /// burst count stops advancing is wedged or dead.
  [[nodiscard]] std::uint32_t burst_count() const { return burst_seq_; }

  /// Re-binds this Monitor to a different Runtime (worker migration after a
  /// supervisor quarantine).  Legal only while fully stopped — every timer
  /// cancelled (stop()/reset_for_recovery()); timers must fire on the
  /// runtime that armed them.
  void rebind_runtime(Runtime* runtime);

 private:
  struct UpdateJob {
    enum class Kind : std::uint8_t { kAdd, kModify, kDelete };
    Kind kind = Kind::kAdd;
    openflow::Rule rule;           // new version (add/modify) or old (delete)
    std::optional<Probe> probe;
    openflow::Epoch epoch = 0;     // table epoch the job was started against
    netbase::SimTime started = 0;
    int silent_injections = 0;     // for negative confirmation
    bool negative = false;         // confirmation is silence-based
    std::uint64_t inject_timer = 0;
    std::uint64_t give_up_timer = 0;
    bool drop_postponed = false;   // §4.3 second phase pending
    openflow::Rule final_rule;     // real drop rule to install after confirm
  };

  struct OutstandingProbe {
    std::uint64_t cookie = 0;
    openflow::Epoch epoch = 0;  // table epoch at injection
    std::uint32_t nonce = 0;
    int tries_left = 0;
    netbase::SimTime first_injected = 0;
    /// Timeout instant (steady, retry and confirmation probes; update
    /// probes re-inject on their own cadence and never time out).
    netbase::SimTime deadline = 0;
    /// Deadline-queue links (see timeouts_head_); meaningful only while
    /// `queued`.  Map nodes keep their address across the spare pool's
    /// extract/insert, so the links survive recycling.
    bool queued = false;
    OutstandingProbe* prev = nullptr;
    OutstandingProbe* next = nullptr;
  };

  struct HeldBarrier {
    std::uint32_t xid = 0;
    std::unordered_set<std::uint64_t> waiting_on;  // unconfirmed cookies
    bool reply_seen = false;
  };

  // Controller-side handling.
  void handle_flow_mod(const openflow::FlowMod& fm, std::uint32_t xid);
  void apply_and_track(const openflow::FlowMod& fm, std::uint32_t xid);
  void start_update_job(UpdateJob job);
  /// (Re)arms the give-up alarm of the pending update for `cookie`.
  void schedule_update_give_up(std::uint64_t cookie);
  void inject_update_probe(std::uint64_t cookie);
  void confirm_update(std::uint64_t cookie);
  void confirm_barriers_waiting_on(std::uint64_t cookie);
  void drain_hold_queue();
  bool overlaps_pending(const openflow::Match& match) const;
  /// Strategy-2 downstream choice for a rule's Collect match.
  [[nodiscard]] SwitchId collect_downstream(const openflow::Rule& rule) const;

  /// Re-sends the catching/filter FlowMods after a reconnect (no expected-
  /// table changes: FlowTable::add replaces identical match+priority rules,
  /// so this is idempotent on the switch too).
  void reassert_infrastructure();

  // Steady state.
  /// One slot of the steady probe cycle.  Beyond the cookie, the rebuild
  /// resolves the pointers every per-probe step used to chase through hash
  /// lookups: the Rule (table find), the rule-state entry (states map) and —
  /// once the first injection resolved it — the probe-cache Entry.  All
  /// three stay valid exactly as long as the order itself: Rule* points into
  /// the table's rule vector and RuleState*/Entry* at unordered_map nodes,
  /// so ANY table mutation (apply_table_delta) or cache swap/erase clears
  /// steady_order_ wholesale and the next tick rebuilds.  rule_states_ never
  /// erases without an accompanying table delta, and state TRANSITIONS
  /// rewrite node values in place — pointer-stable, which is what lets the
  /// cycle watch a rule turn suspect without re-hashing its cookie.
  struct SteadyEntry {
    std::uint64_t cookie = 0;
    const openflow::Rule* rule = nullptr;
    const RuleState* state = nullptr;
    ProbeCache::Entry* entry = nullptr;  ///< null until first injection
    /// Last steady injection time, resolved into last_probed_ at rebuild
    /// (node-stable) and written through per injection — the priority
    /// wheel's staleness source, surviving order rebuilds because the map
    /// outlives them.
    netbase::SimTime* last_probed = nullptr;
    /// Burst the slot was last picked in (steady_probe_burst's
    /// one-probe-per-rule-per-burst guard).
    std::uint32_t last_pick = 0;
  };
  void steady_tick();
  void schedule_steady_tick();
  /// Advances the rule cycle; returns the next probeable slot (null when
  /// none).  The slot carries the Rule/state/cache pointers the cycle
  /// already resolved so the injection path repeats no lookup per probe.
  /// Picks run through a staleness-bucketed priority wheel over
  /// steady_order_ (stalest bucket first, steady_order_ order within a
  /// bucket): O(1) amortized per pick, no allocation once the bucket
  /// vectors are warm, and — unlike the old positional rotation, which
  /// restarted at slot 0 after every delta-driven rebuild — staleness
  /// survives rebuilds, so churn can no longer starve the tail of the
  /// cycle.  One full wheel cycle still visits every probeable rule
  /// exactly once.
  SteadyEntry* next_steady_entry();
  /// Re-bins every steady_order_ slot into the staleness buckets by
  /// current age (quantum = Config::probe_timeout).  Runs at order rebuild
  /// and each time the wheel is exhausted — amortized O(1) per pick.
  void rebuild_wheel();
  /// Returns true only when a probe packet was actually handed to a live
  /// injection path; a failed injection registers no timeout (an outage
  /// must yield no verdict, not a timeout-derived one).
  bool inject_steady_probe(SteadyEntry& slot);
  void on_steady_timeout(std::uint32_t nonce);
  /// Registers a just-injected probe that waits for a timeout: inserts it
  /// into outstanding_ and appends it to the deadline queue.
  void insert_timed_probe(const OutstandingProbe& op);
  /// Times out every queued probe whose deadline has come (deadline <=
  /// now), in deadline order, through on_steady_timeout.  Runs from the
  /// queue's timer and at the top of every path that could otherwise
  /// observe such a probe first (see timeouts_head_).
  void expire_due_probes();
  /// Arms the queue's Runtime timer at the head's deadline unless one is
  /// already pending (a pending timer is never later than the head).
  void arm_timeout_timer();
  void unlink_timeout(OutstandingProbe& op);
  void mark_rule_failed(std::uint64_t cookie);
  // K-of-N suspect confirmation (Config::confirm_probes).  A rule enters
  // suspects_ when its probe train exhausts (or an absent echo arrives),
  // leaves it confirmed-failed after confirm_failures strikes, or cleared
  // (flap suppression) on one present echo / too few strikes.  Evidence is
  // dropped — no verdict — when the channel dies, the rule is deltaed, or
  // the Monitor stops.
  /// Notifies hooks_.on_verdict of a rule-state transition (telemetry).
  void note_verdict(std::uint64_t cookie, RuleState state);
  void raise_suspect(std::uint64_t cookie);
  void schedule_suspect_probe(std::uint64_t cookie);
  void inject_suspect_probe(std::uint64_t cookie);
  void suspect_strike(std::uint64_t cookie);
  /// Removes the suspect entry without a verdict (delta/outage/teardown);
  /// the rule returns to the steady cycle as kConfirmed-unknown.
  void drop_suspect(std::uint64_t cookie);
  /// Drops every outstanding probe of `cookie` (and its deadline-queue
  /// link) — update confirmation/give-up resolve ALL of a rule's in-flight
  /// nonces.
  void purge_outstanding_for(std::uint64_t cookie);

  // Probe plumbing.
  const Probe* probe_for(const openflow::Rule& rule);
  /// As probe_for, but exposes the cache entry so the steady path can reach
  /// the cached wire frame without a second lookup.  Null when the rule is
  /// (or just became) unmonitorable.
  ProbeCache::Entry* probe_entry_for(const openflow::Rule& rule);
  /// The post-mutation half of every table change: syncs the live batch
  /// sessions, invalidates the delta's affected cookies' cached probes that
  /// do not provably survive (no whole-table match scan), stamps their
  /// epoch floors, purges their in-flight nonces, schedules the coalesced
  /// refill, and notifies hooks_.on_delta.  `invalidate = false` skips the
  /// cache sweep — the seed_rule harness path, which by contract trusts
  /// shared cache contents (cross-trial probe reuse).
  void apply_table_delta(const openflow::TableDelta& delta,
                         bool invalidate = true);
  /// The live delta-maintained session for `collect` (created on demand
  /// against the current table).
  ProbeBatchSession& live_session_for(const openflow::Match& collect);
  /// Epoch before which observations about `cookie` are stale.
  [[nodiscard]] openflow::Epoch rule_floor(std::uint64_t cookie) const;
  /// Generates cache entries for `cookies` (rules still present and not
  /// yet cached) on the live sessions.
  void batch_generate_into_cache(const std::vector<std::uint64_t>& cookies);
  /// Commits one generation result to the probe cache and rule states —
  /// shared by the lazy (probe_for) and batch paths so their cache contents
  /// cannot diverge.  Returns the cached probe, or nullptr if the rule was
  /// marked unmonitorable.
  const Probe* commit_generation_result(const openflow::Rule& rule,
                                        ProbeGenResult gen);
  /// Warm-up: batch-generates probes for every monitorable rule.
  void refill_probe_cache();
  void schedule_batch_refill();
  /// Generates `rule`'s probe on its collect group's live session,
  /// entering on the rule-hashed port of `all_ports` if that port admits a
  /// probe and on any of them otherwise.
  ProbeGenResult generate_live(const openflow::Rule& rule,
                               const std::vector<std::uint16_t>& all_ports);
  /// Emits one probe frame.  With a cache `entry` the frame is crafted once
  /// into entry->wire and re-stamped thereafter; without one
  /// (update-confirmation probes) it is crafted per call into the reusable
  /// scratch buffer.
  bool inject_probe_packet(const Probe& probe, ProbeCache::Entry* entry,
                           openflow::Epoch epoch, std::uint32_t nonce);
  std::optional<Observation> translate_observation(
      SwitchId catcher, std::uint16_t catcher_in_port,
      const netbase::PacketView& packet) const;
  static bool is_infrastructure_cookie(std::uint64_t cookie);
  std::vector<std::uint16_t> injectable_ports() const;
  bool egress_unobservable(const Probe& probe) const;

  Config config_;
  Runtime* runtime_;
  const NetworkView* view_;
  const CatchPlan* plan_;
  Hooks hooks_;

  openflow::TableVersion expected_;
  std::shared_ptr<ProbeCache> cache_;
  std::unordered_map<std::uint64_t, RuleState> rule_states_;
  std::unordered_set<std::uint64_t> failed_;
  /// Per-rule staleness floors: observations carried by probes injected at
  /// an epoch below the floor are classified stale (the rule's Distinguish
  /// context changed under them).  Pruned when the rule is deleted.
  std::unordered_map<std::uint64_t, openflow::Epoch> rule_floor_;
  /// Monitor-wide floor (bumped across channel outages via a barrier epoch).
  openflow::Epoch epoch_floor_ = 0;
  /// Live delta-maintained batch sessions, one per collect group; synced to
  /// every delta by apply_table_delta, created lazily by live_session_for.
  /// Each stays bounded however many queries it answers (every query's
  /// clauses are swept and its variables recycled), so none is ever
  /// rebuilt.
  struct LiveSession {
    openflow::Match collect;
    std::unique_ptr<ProbeBatchSession> session;
  };
  std::vector<LiveSession> live_sessions_;

  struct SuspectEntry {
    int probes_left = 0;           // confirmation probes still to send
    int strikes = 0;               // absent/timeout verdicts accumulated
    netbase::SimTime backoff = 0;  // next injection delay (geometric)
    netbase::SimTime since = 0;
    std::uint64_t timer = 0;       // pending confirmation injection
  };
  std::unordered_map<std::uint64_t, SuspectEntry> suspects_;  // by cookie

  std::unordered_map<std::uint64_t, UpdateJob> updates_;  // by cookie
  std::deque<std::pair<openflow::Message, std::uint32_t>> hold_queue_;
  std::vector<HeldBarrier> barriers_;

  std::vector<SteadyEntry> steady_order_;  // resolved cycle (see SteadyEntry)
  /// Priority wheel over steady_order_ (indices): bucket 0 holds the
  /// stalest rules, the last bucket the freshest; picks drain bucket 0
  /// first.  Bucket vectors keep their capacity across re-bins, so the
  /// steady cycle stays allocation-free once warm.
  static constexpr std::size_t kStalenessBuckets = 4;
  std::array<std::vector<std::uint32_t>, kStalenessBuckets> wheel_;
  std::array<std::size_t, kStalenessBuckets> wheel_pos_{};
  bool wheel_built_ = false;
  /// Per-cookie last steady injection time (node-stable; entries appear at
  /// order rebuild and die only with the Monitor — a few words per rule).
  std::unordered_map<std::uint64_t, netbase::SimTime> last_probed_;
  bool steady_running_ = false;
  bool channel_up_ = true;   // see on_channel_state
  bool channel_was_up_ = false;  // gates the disconnect stat: a backend
                                 // bound before its first handshake is not
                                 // a "disconnect"
  bool infrastructure_installed_ = false;
  // Timer handles, zeroed on fire/cancel so a stale cancel can never hit a
  // reissued id (see the Runtime contract in runtime.hpp).
  std::uint64_t warmup_timer_ = 0;
  std::uint64_t steady_timer_ = 0;
  std::uint64_t refill_timer_ = 0;
  using OutstandingMap = std::unordered_map<std::uint32_t, OutstandingProbe>;
  OutstandingMap outstanding_;  // by nonce

  /// Probe-timeout deadline queue: an intrusive FIFO through the
  /// outstanding_ nodes of every probe that waits for a timeout.  Steady
  /// probes, their retries and K-of-N confirmation probes all wait the same
  /// per-try timeout (probe_timeout / probe_retries) and now() never runs
  /// backwards, so appending keeps the FIFO in deadline order, ties in
  /// injection order.  ONE Runtime timer, armed at the head, expires every
  /// due probe; a caught, purged or stale probe just unlinks.  Tie rule:
  /// the per-probe timer this replaces was scheduled at injection, ahead of
  /// every later event at its instant, so an echo, burst or FlowMod that
  /// arrives exactly at a deadline must find that probe already expired —
  /// those paths call expire_due_probes() first.
  OutstandingProbe* timeouts_head_ = nullptr;
  OutstandingProbe* timeouts_tail_ = nullptr;
  std::uint64_t timeout_timer_ = 0;
  bool expiring_ = false;  // expire_due_probes() is running (re-entry guard)
  /// Drops every outstanding probe and cancels the queue's timer (channel
  /// loss, stop()).
  void clear_outstanding();

  /// Retired outstanding_ nodes, recycled on the next insertion so the
  /// steady cycle's per-probe bookkeeping allocates nothing: every resolve
  /// extracts the node here, every inject re-keys one from here.
  std::vector<OutstandingMap::node_type> outstanding_spares_;
  static constexpr std::size_t kMaxOutstandingSpares = 256;
  /// Inserts (or, on a wrapped nonce, overwrites) the entry for `nonce`
  /// and returns the stored record, unqueued.
  OutstandingProbe& insert_outstanding(std::uint32_t nonce,
                                       const OutstandingProbe& op);
  /// extract()s the node behind `it` into the spare pool; invalidates `it`.
  void retire_outstanding(OutstandingMap::iterator it);

  /// Watermark sweep (endurance): erases every rule_floor_ entry at or
  /// below the smallest epoch any in-flight probe still carries (such a
  /// floor can never classify another observation — future injections
  /// stamp the current epoch, which is ≥ every floor ever set), and trims
  /// the outstanding spare pool to the high-watermark of concurrent
  /// probes since the last sweep.  Triggered from apply_table_delta when
  /// the floor map outgrows its bound; amortized O(1) per delta.
  void sweep_rule_floors();
  std::size_t next_floor_sweep_ = 0;   // 0 = derive from config on first use
  std::size_t outstanding_peak_ = 0;   // high-watermark since last sweep

  /// Scratch frame buffer for per-call crafting on the fast path (update
  /// probes, whose altered-table packets are not cache entries).
  std::vector<std::uint8_t> wire_scratch_;

  std::uint32_t next_nonce_ = 1;
  std::uint32_t burst_seq_ = 0;  // see SteadyEntry::last_pick
  MonitorStats stats_;
  telemetry::StatsRing* stats_ring_ = nullptr;  // see publish_telemetry()

  // Cookies whose cached probes were invalidated; refilled in one coalesced
  // batch-generation pass instead of per-rule on the next probing tick.
  std::unordered_set<std::uint64_t> dirty_probe_cookies_;
  bool batch_refill_scheduled_ = false;
};

}  // namespace monocle
