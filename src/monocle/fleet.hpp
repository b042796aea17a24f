// Network-wide monitoring fleet: one Monitor shard per switch, orchestrated
// as a single system.
//
// The paper runs "one Monocle instance per switch" (§7) but leaves their
// coordination to the operator.  The Fleet closes that gap with three
// pieces:
//
//  * a coloring-driven probe scheduler (schedule.hpp): switches are
//    partitioned into non-interfering rounds via the same vertex-coloring
//    machinery that plans the catching rules (§6, §8.3.2), and the Fleet
//    rotates through the rounds on the Runtime timer service — rounds are
//    pipelined, i.e. round r+1 starts on the interval whether or not round
//    r's probes have all returned (per-probe timeouts stay per-Monitor);
//  * shared warm-up: each shard warms its probe cache on its own live
//    ProbeBatchSession, and a fleet-wide worker pool runs whole shards in
//    parallel (a session is single-threaded), so a 20-switch fabric warms
//    up in parallel without oversubscribing;
//  * cross-switch failure localization (localizer.hpp, evidence.hpp):
//    per-probe verdicts accumulate in each shard's failed-rule set via the
//    Multiplexer/Catching path; the first steady-state alarm arms evidence
//    passes (after a debounce, then every evidence_interval while anything
//    stays failed or suspect) that publish a confirmed link/switch-level
//    NetworkDiagnosis, again only when it changes, instead of raw per-rule
//    alarms.  diagnose() is the on-demand single pass.
//
// Lifecycle: add_shard() per switch, set_schedule() (or let start() fall
// back to the sequential baseline), then either start() for the
// self-scheduling pipeline or prepare() + start_round() to drive rounds
// manually (benches do this to time rounds).  stop()/remove_shard() cancel
// every pending timer — mid-round teardown leaves nothing dangling
// (tests/fleet_test.cpp).
//
// Multi-threaded rounds (Config::round_workers > 1): prepare() spins up a
// RoundEngine and start_round() fans each round's shard bursts out over N
// workers.  Shard affinity is the invariant that keeps this simple — a
// shard's Monitor, Runtime (timers) and arena are only ever touched on its
// owning worker (assignment: registration order % N), cross-worker effects
// travel through the mailbox, and stats are relaxed atomics read via
// stats_snapshot().  See docs/DESIGN.md §12 and tests/fleet_mt_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "monocle/budget.hpp"
#include "monocle/catching.hpp"
#include "monocle/crash_plan.hpp"
#include "monocle/evidence.hpp"
#include "monocle/localizer.hpp"
#include "monocle/monitor.hpp"
#include "monocle/multiplexer.hpp"
#include "monocle/round_engine.hpp"
#include "monocle/runtime.hpp"
#include "monocle/schedule.hpp"
#include "telemetry/hub.hpp"

namespace monocle {

namespace telemetry {
class CheckpointStore;  // checkpoint_store.hpp (fleet.cpp includes it)
}  // namespace telemetry

class Fleet {
 public:
  struct Config {
    /// Base per-shard configuration.  switch_id is set per shard, and
    /// steady_probe_rate is forced to 0 (the Fleet paces probing).
    Monitor::Config monitor;
    /// Interval between successive probe rounds.
    netbase::SimTime round_interval = 10 * netbase::kMillisecond;
    /// Mean probes per co-scheduled switch per round (each burst capped by
    /// the switch's monitorable-rule cycle): the budget scheduler re-divides
    /// probes_per_switch × round size across the round's shards from their
    /// pressure signals (budget.hpp; docs/DESIGN.md §14).
    std::size_t probes_per_switch = 4;
    /// Weights/bounds of the budget scheduler.  All four pressure weights at
    /// 0 give every scheduled shard exactly probes_per_switch each round.
    BudgetOptions budget;
    /// Delay between prepare() and the first round of start(), so
    /// pre-installed catching rules provably reach the data plane.
    netbase::SimTime warmup = 200 * netbase::kMillisecond;
    /// Worker threads of the shared warm-up pool; 0 = hardware concurrency
    /// (capped by the shard count).
    int warmup_threads = 0;
    /// Settle time between the first shard alarm and the first evidence
    /// pass (lets a link failure fail all its rules first).
    netbase::SimTime localize_debounce = 300 * netbase::kMillisecond;
    /// Evidence accumulation (evidence.hpp): after the debounce the Fleet
    /// re-observes every evidence_interval while rules stay failed or
    /// suspicion persists, and publishes a diagnosis once it is confirmed,
    /// again only when it CHANGES.
    EvidenceOptions evidence;
    netbase::SimTime evidence_interval = 100 * netbase::kMillisecond;
    /// TableDelta-driven churn exclusion: rules deltaed within this window
    /// — plus every in-flight update — are excluded from corroboration in
    /// diagnose()/evidence passes (localizer.hpp, SwitchFailureReport::
    /// excluded).  0 disables delta tracking (pending updates are still
    /// excluded).
    netbase::SimTime churn_exclusion = 500 * netbase::kMillisecond;
    /// Telemetry plane (docs/DESIGN.md §13).  When set, every shard gets a
    /// StatsRing from the hub (Monitor::publish_telemetry publishes one
    /// sample per round burst, on the owning worker) and the Fleet journals
    /// the shard event streams — confirmations, update failures, verdict
    /// transitions, channel state changes, applied TableDeltas — plus every
    /// published NetworkDiagnosis.  Must outlive the Fleet.  Null: off,
    /// zero overhead.
    telemetry::TelemetryHub* telemetry = nullptr;
    /// Crash-safety plane (checkpoint.hpp; docs/DESIGN.md §15).  When set,
    /// start_round() snapshots one round-member shard per round (round-robin
    /// cursor, so a fleet of N is fully re-covered every N scheduled
    /// appearances) plus the fleet-level record, through the reusable encode
    /// buffer — the steady cycle stays allocation-free with checkpointing
    /// on.  restore() warm-restarts from the store's latest valid snapshots.
    /// Must outlive the Fleet.  Null: off, zero overhead.
    telemetry::CheckpointStore* checkpoints = nullptr;
    /// Deterministic fault-injection schedule (crash_plan.hpp), consulted at
    /// every round boundary: kills stop the shard's Monitor, wedges skip its
    /// bursts, channel tears drive on_channel_state.  Test/bench harness
    /// only; the supervisor never reads it — faults must be DETECTED from
    /// heartbeats.  Must outlive the Fleet.  Null: no faults.
    CrashPlan* crash_plan = nullptr;
    /// Receives each confirmed, changed NetworkDiagnosis of the evidence
    /// pipeline.  Null: no evidence passes run.
    std::function<void(const NetworkDiagnosis&)> on_diagnosis;
    /// Runs after remove_shard destroyed a shard, so the host can drop its
    /// own references to the dead Monitor (the Testbed unregisters it from
    /// the Multiplexer and rewires the switch's control sink).
    std::function<void(SwitchId)> on_shard_removed;
    /// Multi-threaded round driver (round_engine.hpp).  > 1 with a matching
    /// worker_runtimes vector turns on the N-worker engine: each shard is
    /// pinned to worker (registration order % round_workers), its Monitor
    /// runs on that worker's Runtime, and start_round() fans the round's
    /// bursts out across workers.  1 (default) is the single-threaded
    /// driver, byte-identical in classification behaviour — the parity and
    /// bench baseline.
    std::size_t round_workers = 1;
    /// One Runtime per worker (index = worker).  Each is driven ONLY from
    /// its worker (timer advancement via run_on_worker), which is what
    /// keeps Monitor timer state single-threaded.  Required (same size as
    /// round_workers) when round_workers > 1; ignored otherwise.
    std::vector<Runtime*> worker_runtimes;
  };

  /// Fleet-wide counters.  Plain integers, but every Fleet-side increment
  /// goes through a relaxed std::atomic_ref so shard callbacks running on
  /// the warm-up worker pool (or any future multi-threaded round driver)
  /// never take a lock — and never contend on the Multiplexer to report
  /// stats.  Readers on the orchestration thread read them plainly.
  struct Stats {
    std::uint64_t rounds_started = 0;
    std::uint64_t probes_injected = 0;
    std::uint64_t alarms = 0;     ///< shard alarms observed
    std::uint64_t diagnoses = 0;  ///< diagnoses published
    std::uint64_t flow_mods_routed = 0;  ///< route_flow_mod deliveries
    std::uint64_t deltas_observed = 0;   ///< TableDeltas across all shards
    std::uint64_t evidence_passes = 0;   ///< evidence observe() passes run
  };

  Fleet(Config config, Runtime* runtime, const NetworkView* view,
        const CatchPlan* plan);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Creates and owns the Monitor shard for `sw`.  The shard's on_alarm
  /// hook is chained: the Fleet observes every alarm (it arms evidence
  /// localization) before forwarding to the hook given here.
  Monitor* add_shard(SwitchId sw, Monitor::Hooks hooks);

  /// Backend-aware shard creation: the shard's control-channel plumbing is
  /// wired through `backend` and `mux` (to_switch sends down the backend,
  /// probe injection goes through the Multiplexer, inbound messages and
  /// up/down transitions come back via Multiplexer::bind_backend), so the
  /// caller only supplies observer hooks (alarms, confirmations) in
  /// `hooks`.  The registrations this overload creates are torn down by
  /// the Fleet itself (remove_shard / destruction rebinds the backend
  /// monitor-less), so `backend` and `mux` must outlive the Fleet — or at
  /// least every remove_shard call for `sw`.
  Monitor* add_shard(SwitchId sw, channel::SwitchBackend& backend,
                     Multiplexer& mux, Monitor::Hooks hooks = {});

  /// Stops and destroys the shard for `sw` (cancels its timers; in-flight
  /// probes are forgotten).  Returns false when no such shard exists.
  bool remove_shard(SwitchId sw);

  [[nodiscard]] Monitor* monitor(SwitchId sw) const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const std::map<SwitchId, std::unique_ptr<Monitor>>& shards()
      const {
    return shards_;
  }

  /// Installs the round schedule (see RoundSchedule::build).  Switches in
  /// the schedule without a shard are skipped at round time; shards missing
  /// from the schedule never probe.
  void set_schedule(RoundSchedule schedule);
  [[nodiscard]] const RoundSchedule& schedule() const { return schedule_; }

  /// Installs catching infrastructure on every shard, warms all probe
  /// caches through the shared worker pool, and marks shards externally
  /// paced.  Falls back to a sequential schedule when none was set.
  /// Idempotent; called by start().
  void prepare();

  /// prepare() + the self-scheduling round pipeline (first round after
  /// config.warmup, then one round per round_interval).
  void start();

  /// Cancels the round pipeline, any pending evidence pass, and every
  /// shard's timers.  Terminal, like Monitor::stop().
  void stop();

  /// Manually starts the next round (cursor advances round-robin); returns
  /// the number of probes injected.  Benches use this to time rounds.
  std::size_t start_round();
  [[nodiscard]] std::size_t round_cursor() const { return cursor_; }

  /// Routes a controller FlowMod to the shard owning `sw` — the network-
  /// wide entry point of the per-switch delta streams.  Returns false when
  /// no shard owns the switch.  Every delta a shard applies (from this
  /// router or its own control channel) is observed by the Fleet (epoch
  /// tracking + deltas_observed) before the caller's on_delta hook runs.
  bool route_flow_mod(SwitchId sw, const openflow::FlowMod& fm,
                      std::uint32_t xid = 0);

  /// Current table epoch of a shard (0 when the switch is unmanaged).
  [[nodiscard]] openflow::Epoch shard_epoch(SwitchId sw) const;

  /// On-demand single localize_network pass over all shards, with default
  /// options (churn-excluded rules never enter corroboration).
  [[nodiscard]] NetworkDiagnosis diagnose() const;

  /// The evidence accumulator behind the published diagnoses (read-only).
  [[nodiscard]] const NetworkEvidence& evidence() const { return evidence_; }

  /// The budget scheduler (read-only observability).
  [[nodiscard]] const BudgetScheduler& budgeter() const { return budgeter_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Consistent Stats read while a multi-worker round may be executing:
  /// quiesces the engine (every worker's relaxed increments happen-before
  /// the loads) and samples each field through an atomic_ref.  This is THE
  /// way a telemetry thread reads fleet counters — the plain stats()
  /// reference is only safe on the orchestration thread between rounds
  /// (regression: field-by-field reads under concurrent increments tore).
  [[nodiscard]] Stats stats_snapshot() const;

  // --- multi-worker driver surface (round_workers > 1) ------------------
  /// Workers the round driver runs (1 in single-threaded mode).
  [[nodiscard]] std::size_t worker_count() const {
    return multi_worker() ? config_.round_workers : 1;
  }
  /// The worker the NEXT add_shard call will pin its shard to — hosts that
  /// wire their own inject/timer plumbing read this before add_shard so
  /// their per-worker resources agree with the Fleet's assignment.
  [[nodiscard]] std::size_t next_shard_worker() const { return next_worker_; }
  /// Worker owning `sw`'s shard (0 when unmanaged or single-threaded).
  [[nodiscard]] std::size_t shard_worker(SwitchId sw) const;
  /// Runs `fn` on the given worker (blocking) — the only legal way to touch
  /// a shard's Monitor or advance its worker Runtime from outside once the
  /// engine runs.  Runs `fn` inline when the engine is absent/stopped.
  /// Cross-worker mailbox items produced by `fn` are drained before return.
  void run_on_worker(std::size_t worker, const std::function<void()>& fn);
  /// The engine, once prepare() created it (null before / single-threaded).
  /// Exposed for thread-safe mid-round teardown: RoundEngine::stop() may be
  /// called from any thread; Fleet methods themselves stay orchestration-
  /// thread-only.
  [[nodiscard]] RoundEngine* engine() const { return engine_.get(); }

  /// Pushes the fleet-wide Stats into the telemetry hub's exporter as
  /// external series (monocle_fleet_*).  No-op without Config::telemetry.
  /// Uses stats_snapshot(), so any thread may call it — ExportThread
  /// loop_tasks and scrape handlers typically do.
  void publish_telemetry();

  // --- crash-safe warm restart (docs/DESIGN.md §15) ---------------------
  /// What Fleet::restore() rehydrated.
  struct RestoreReport {
    std::size_t shards_restored = 0;  ///< shards warm-restored from snapshot
    std::size_t shards_cold = 0;      ///< no/invalid snapshot: cold start
    std::size_t verdicts_seeded = 0;
    std::size_t suspects_rearmed = 0;
    std::size_t manifest_admitted = 0;  ///< probes restored without SAT
    std::size_t manifest_dropped = 0;   ///< stale/orphaned manifest entries
    std::size_t tail_verdicts = 0;  ///< journal verdicts past the snapshots
    std::size_t tail_deltas = 0;    ///< journal deltas invalidating manifests
    bool fleet_state_restored = false;  ///< budget carry + round counter
  };

  /// Warm restart from Config::checkpoints: every shard with a valid latest
  /// snapshot is rehydrated (verdicts silently, suspects re-armed, manifest
  /// probes re-admitted so warm-up skips their SAT work), then the
  /// EventJournal tail is replayed PAST each snapshot's epoch — verdict
  /// records re-seed silently, delta records invalidate the affected
  /// manifest entries — and fleet-level state (budget carry, round counter)
  /// resumes.  The restore generation bump guarantees pre-restart in-flight
  /// probes classify as stale-epoch drops, never as failures.
  ///
  /// Call AFTER add_shard()+rule re-seeding (the expected tables must carry
  /// controller intent — the manifest is validated against them) and BEFORE
  /// prepare().  No-op report when Config::checkpoints is null.
  RestoreReport restore();

  // --- supervised shard recovery (docs/DESIGN.md §15) -------------------
  struct SupervisorOptions {
    /// Scheduled rounds a shard's burst counter may stall before it is
    /// declared wedged and quarantined.
    std::size_t missed_rounds = 3;
    /// Restore a quarantined shard from its checkpoint immediately (else
    /// the host calls restore_shard()).
    bool auto_restore = true;
    /// This many shards of ONE worker quarantined in the same sweep reads
    /// as a stuck WORKER: its shards are restored onto the next healthy
    /// worker (Monitor::rebind_runtime) instead of in place.
    std::size_t min_worker_shards_stuck = 2;
  };
  struct SupervisorStats {
    std::uint64_t heartbeats_missed = 0;  ///< shard-rounds without progress
    std::uint64_t quarantines = 0;
    std::uint64_t restores = 0;       ///< warm restores from checkpoint
    std::uint64_t cold_restores = 0;  ///< no valid snapshot: cold reset
    std::uint64_t readmissions = 0;   ///< shards back in the round rotation
    std::uint64_t worker_reassignments = 0;  ///< shards migrated off a worker
  };

  /// The per-shard watchdog: start_round() compares every scheduled shard's
  /// Monitor::burst_count() against the last round it ran — a shard that
  /// stops advancing for SupervisorOptions::missed_rounds scheduled rounds
  /// is quarantined (skipped by rounds, budget planning and checkpointing)
  /// and, with auto_restore, immediately restored from its latest
  /// checkpoint and re-admitted.  Re-admitted shards catch up through the
  /// BudgetScheduler's staleness pressure, not a special burst.
  struct Supervisor {
    SupervisorOptions options;
    SupervisorStats stats;
    bool enabled = false;
    std::map<SwitchId, std::uint32_t> last_burst;  ///< burst_count at last run
    std::map<SwitchId, std::size_t> missed;        ///< consecutive stalls
    std::unordered_set<SwitchId> quarantined;
  };

  // Two overloads instead of `SupervisorOptions opts = {}` (GCC 12 nested-
  // class NSDMI default-argument workaround, as elsewhere).
  void enable_supervision() { enable_supervision(SupervisorOptions{}); }
  void enable_supervision(SupervisorOptions opts);
  [[nodiscard]] const Supervisor& supervisor() const { return supervisor_; }
  [[nodiscard]] bool shard_quarantined(SwitchId sw) const {
    return supervisor_.quarantined.contains(sw);
  }

  /// Restores one quarantined (or wedged) shard: stop + reset on its owning
  /// worker, rehydrate from the latest checkpoint (cold reset when none
  /// survives), replay the journal tail, resume external pacing, re-admit
  /// into the round rotation.  `new_worker` (optional) migrates the shard
  /// to that worker first (stuck-worker recovery).  Returns false when the
  /// shard does not exist.  Orchestration thread, between rounds.
  bool restore_shard(SwitchId sw);
  bool restore_shard(SwitchId sw, std::size_t new_worker);

  /// Sum of outstanding (unresolved) probes across shards.
  [[nodiscard]] std::size_t outstanding_probes() const;
  /// Sum of currently-failed rules across shards.
  [[nodiscard]] std::size_t failed_rule_count() const;
  /// Sum of monitorable rules across shards.
  [[nodiscard]] std::size_t monitorable_rule_count() const;

 private:
  [[nodiscard]] bool multi_worker() const {
    return config_.round_workers > 1 && !config_.worker_runtimes.empty();
  }
  /// One cross-worker message.  Workers must not touch orchestration state
  /// (the evidence timer lives on the orchestration Runtime), so shard
  /// hooks that fire on a worker — alarms arming evidence localization,
  /// deltas feeding the churn-exclusion window — enqueue here and the
  /// orchestration thread replays them in drain_mailbox() after the
  /// engine barrier.
  struct MailboxItem {
    enum class Kind : std::uint8_t { kAlarm, kDelta };
    Kind kind = Kind::kAlarm;
    SwitchId sw = 0;
    openflow::TableDelta delta;  // kDelta payload
  };
  void post_mailbox(MailboxItem item);
  /// Replays queued cross-worker messages on the orchestration thread.
  /// Called after every engine operation (rounds, run_on_worker, stop).
  void drain_mailbox();

  void warm_caches();
  /// Samples every round member's pressure signals and re-plans its
  /// budget.  Orchestration thread, between rounds only: the staleness read
  /// mutates the shard (it rebuilds a steady order a delta cleared), which
  /// is race-free only while every worker is parked at the engine barrier
  /// (round_engine.hpp).
  void plan_budgets(const std::vector<SwitchId>& round);
  void schedule_next_round();
  void note_alarm();
  /// Records a shard's delta for the churn-exclusion window.
  void note_delta(SwitchId sw, const openflow::TableDelta& delta);
  /// Builds per-shard reports; `exclusions` (parallel to `reports`) owns
  /// the excluded-cookie sets for the duration of the localization call.
  void collect_reports(
      std::vector<SwitchFailureReport>& reports,
      std::vector<std::unordered_set<std::uint64_t>>& exclusions) const;
  void schedule_evidence_pass(netbase::SimTime delay);
  void run_evidence_pass();
  /// Applies Config::crash_plan's events for this round boundary: kills
  /// stop the Monitor on its worker, channel tears toggle on_channel_state.
  void apply_crash_plan(const std::vector<SwitchId>& round,
                        std::uint64_t round_index);
  /// True when the crash plan says `sw` is not executing this round.
  [[nodiscard]] bool crash_plan_blocks(SwitchId sw,
                                       std::uint64_t round_index) const;
  /// Heartbeat sweep over this round's scheduled shards; quarantines and
  /// (auto_restore) restores stalled ones.
  void supervise_round(const std::vector<SwitchId>& round);
  /// Snapshots one round member (round-robin) plus the fleet-level record
  /// into Config::checkpoints.
  void write_round_checkpoint(const std::vector<SwitchId>& round,
                              std::uint64_t round_index);
  /// What the EventJournal records about a shard PAST its snapshot's
  /// `epoch`: post-snapshot deltas (their cookies invalidate manifest
  /// entries) and post-snapshot verdict transitions, in journal order.
  struct JournalTail {
    openflow::Epoch epoch = 0;
    std::unordered_set<std::uint64_t> stale;
    std::vector<std::pair<std::uint64_t, RuleState>> verdicts;
  };
  /// Fills the tail of every shard keyed in `tails` (epochs set by the
  /// caller) in ONE pass over the journal — a restore of N shards must not
  /// replay it N times.
  void collect_journal_tails(
      std::unordered_map<SwitchId, JournalTail>& tails) const;
  /// Wires shard `sw` into Config::telemetry: attaches its StatsRing and
  /// wraps the (already Fleet-chained) hooks with journal recorders.  Runs
  /// once per add_shard, before any probing — the wrapped hooks then fire
  /// only on the shard's owning worker (journal appends are mutexed).
  void attach_telemetry(SwitchId sw, Monitor* mon);
  /// Journals every finding of a published diagnosis (kDiagnosis records).
  void journal_diagnosis(const NetworkDiagnosis& diag);

  Config config_;
  Runtime* runtime_;
  const NetworkView* view_;
  const CatchPlan* plan_;

  std::map<SwitchId, std::unique_ptr<Monitor>> shards_;
  /// Undoes what the backend add_shard overload registered on the
  /// Multiplexer/backend (they capture the raw Monitor*); run before the
  /// shard is destroyed so nothing dangles.
  std::map<SwitchId, std::function<void()>> shard_unbind_;
  RoundSchedule schedule_;
  std::size_t cursor_ = 0;
  bool prepared_ = false;
  bool running_ = false;
  // Zeroed on fire/cancel per the Runtime timer contract (runtime.hpp).
  std::uint64_t round_timer_ = 0;
  std::uint64_t evidence_timer_ = 0;
  NetworkEvidence evidence_;
  /// Signature of the last published evidence diagnosis — republish only on
  /// change, so a stable confirmed fault pages once, not per pass.
  std::vector<std::array<std::uint64_t, 4>> published_sig_;
  /// Per-shard recently-deltaed cookies, pruned past churn_exclusion.
  std::map<SwitchId, std::deque<std::pair<std::uint64_t, netbase::SimTime>>>
      recent_deltas_;
  Stats stats_;

  // Multi-worker driver state (round_workers > 1).
  std::unique_ptr<RoundEngine> engine_;  // created by prepare()
  /// Per-worker burst lists, repartitioned from the round's switches each
  /// start_round(); vectors keep their capacity, so the steady state
  /// allocates nothing.
  std::vector<std::vector<Monitor*>> round_work_;
  /// Per-worker budgets parallel to round_work_, filled at partition time
  /// so the preregistered round job reads them without any lookup or
  /// allocation.
  std::vector<std::vector<std::size_t>> round_budget_;
  BudgetScheduler budgeter_;
  /// plan_budgets scratch (capacity kept across rounds).
  std::vector<SwitchId> budget_members_;
  std::vector<ShardPressure> pressure_;
  std::vector<BudgetScheduler::ShardView> budget_views_;  // scrape scratch
  std::map<SwitchId, std::size_t> shard_worker_;  // registration order % N
  std::size_t next_worker_ = 0;
  /// Per-worker Multiplexer injection contexts for the backend add_shard
  /// overload's inject hooks (worker-local scratch/arena; multiplexer.hpp).
  std::vector<std::unique_ptr<Multiplexer::InjectContext>> inject_ctxs_;
  Multiplexer* mux_ = nullptr;  // for prepare()'s warm_routes()
  std::mutex mailbox_mu_;
  std::vector<MailboxItem> mailbox_;

  // Crash safety + supervision (docs/DESIGN.md §15).
  Supervisor supervisor_;
  /// Incremental checkpoint writer: round each shard was last snapshotted
  /// at (+1; absent = never).  Each round snapshots the least-recently
  /// covered member, which provably sweeps the whole fleet — a plain
  /// cursor mod round size can cycle over the same members when the
  /// rotation length divides the round count.  One node per shard,
  /// allocated on its first snapshot only (steady state stays alloc-free).
  /// Hashed: every round looks up each member.
  std::unordered_map<SwitchId, std::uint64_t> checkpoint_age_;
  /// Reusable encode buffers (capacity kept: zero steady-state allocs).
  std::vector<std::uint8_t> checkpoint_buf_;
  std::vector<std::uint8_t> fleet_checkpoint_buf_;
  /// Shards the crash plan tore the channel of last round (edge detection).
  std::unordered_set<SwitchId> torn_channels_;
};

}  // namespace monocle
