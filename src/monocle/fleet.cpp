#include "monocle/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "monocle/checkpoint.hpp"
#include "telemetry/checkpoint_store.hpp"

namespace monocle {

namespace {

/// Relaxed lock-free increment of a Stats counter (see Fleet::Stats).
void bump(std::uint64_t& counter, std::uint64_t by = 1) {
  std::atomic_ref<std::uint64_t>(counter).fetch_add(by,
                                                    std::memory_order_relaxed);
}

}  // namespace

Fleet::Fleet(Config config, Runtime* runtime, const NetworkView* view,
             const CatchPlan* plan)
    : config_(std::move(config)), runtime_(runtime), view_(view), plan_(plan),
      evidence_(config_.evidence),
      budgeter_(config_.probes_per_switch, config_.budget) {}

Monitor* Fleet::add_shard(SwitchId sw, Monitor::Hooks hooks) {
  Monitor::Config cfg = config_.monitor;
  cfg.switch_id = sw;
  cfg.steady_probe_rate = 0;  // the Fleet paces probing via rounds
  // Pin the shard to a worker (registration order % N) and give its Monitor
  // that worker's Runtime, so every timer the shard ever arms fires on the
  // thread that owns its state.  Single-threaded mode: worker 0, the
  // orchestration Runtime — unchanged behaviour.
  const std::size_t worker = next_worker_;
  next_worker_ = (next_worker_ + 1) % worker_count();
  shard_worker_[sw] = worker;
  Runtime* shard_runtime =
      multi_worker()
          ? config_.worker_runtimes[worker % config_.worker_runtimes.size()]
          : runtime_;
  // Chain the alarm hook: the Fleet sees every alarm first (debounced
  // localization), then the caller's observer runs.  Under the multi-worker
  // engine this hook fires on the shard's worker, which must not touch the
  // orchestration Runtime's timers — the localization arm goes through the
  // mailbox instead (drained right after the engine barrier).
  auto user_alarm = std::move(hooks.on_alarm);
  hooks.on_alarm = [this, user_alarm = std::move(user_alarm)](
                       const RuleAlarm& alarm) {
    bump(stats_.alarms);
    if (multi_worker()) {
      post_mailbox({MailboxItem::Kind::kAlarm, 0, {}});
    } else {
      note_alarm();
    }
    if (user_alarm) user_alarm(alarm);
  };
  // Chain the delta hook the same way: the Fleet observes every shard's
  // delta stream (network-wide churn accounting + the churn-exclusion
  // window localization reads) before the caller's observer runs.  Same
  // worker-thread caveat: recent_deltas_ is orchestration state, so the
  // multi-worker path routes the copy through the mailbox.
  auto user_delta = std::move(hooks.on_delta);
  hooks.on_delta = [this, sw, user_delta = std::move(user_delta)](
                       const openflow::TableDelta& delta) {
    bump(stats_.deltas_observed);
    if (config_.churn_exclusion > 0) {
      if (multi_worker()) {
        post_mailbox({MailboxItem::Kind::kDelta, sw, delta});
      } else {
        note_delta(sw, delta);
      }
    }
    if (user_delta) user_delta(delta);
  };
  auto monitor = std::make_unique<Monitor>(cfg, shard_runtime, view_, plan_,
                                           std::move(hooks));
  Monitor* raw = monitor.get();
  shards_[sw] = std::move(monitor);
  budgeter_.register_shard(sw);
  if (config_.telemetry != nullptr) attach_telemetry(sw, raw);
  return raw;
}

void Fleet::attach_telemetry(SwitchId sw, Monitor* mon) {
  telemetry::TelemetryHub* hub = config_.telemetry;
  // Capture plane: the shard publishes one StatsSample per round burst into
  // its ring (on the owning worker); the export thread drains it.
  mon->set_stats_ring(hub->ring(sw));
  // Storage plane: wrap the shard's hooks — which already carry the Fleet's
  // own chain from add_shard — with journal recorders.  Safe here because
  // the Monitor was just constructed and has not probed yet, and safe at
  // runtime because each hook only ever fires on the shard's owning worker
  // (journal appends are mutexed anyway).  The shard Runtime is captured
  // for event timestamps — Runtime::now() is readable off-thread.
  Runtime* rt = multi_worker()
                    ? config_.worker_runtimes[shard_worker(sw) %
                                              config_.worker_runtimes.size()]
                    : runtime_;
  Monitor::Hooks& hooks = mon->hooks_for_test();

  auto prev_confirm = std::move(hooks.on_update_confirmed);
  hooks.on_update_confirmed = [hub, sw, mon, rt,
                               prev = std::move(prev_confirm)](
                                  std::uint64_t cookie,
                                  netbase::SimTime latency) {
    hub->record({rt->now(), sw, cookie, mon->epoch(), latency,
                 telemetry::EventKind::kConfirm, 0});
    if (prev) prev(cookie, latency);
  };

  auto prev_failed = std::move(hooks.on_update_failed);
  hooks.on_update_failed = [hub, sw, mon, rt, prev = std::move(prev_failed)](
                               std::uint64_t cookie, netbase::SimTime waited) {
    hub->record({rt->now(), sw, cookie, mon->epoch(), waited,
                 telemetry::EventKind::kUpdateFailed, 0});
    if (prev) prev(cookie, waited);
  };

  auto prev_verdict = std::move(hooks.on_verdict);
  hooks.on_verdict = [hub, sw, rt, prev = std::move(prev_verdict)](
                         std::uint64_t cookie, RuleState state,
                         openflow::Epoch epoch) {
    hub->record({rt->now(), sw, cookie, epoch, 0,
                 telemetry::EventKind::kVerdict,
                 static_cast<std::uint32_t>(state)});
    if (prev) prev(cookie, state, epoch);
  };

  auto prev_channel = std::move(hooks.on_channel_change);
  hooks.on_channel_change = [hub, sw, mon, rt,
                             prev = std::move(prev_channel)](bool up) {
    hub->record({rt->now(), sw, 0, mon->epoch(), 0,
                 telemetry::EventKind::kChannelState, up ? 1u : 0u});
    if (prev) prev(up);
  };

  auto prev_delta = std::move(hooks.on_delta);
  hooks.on_delta = [hub, sw, rt, prev = std::move(prev_delta)](
                       const openflow::TableDelta& delta) {
    hub->record({rt->now(), sw, delta.rule.cookie, delta.epoch, 0,
                 telemetry::EventKind::kDelta,
                 static_cast<std::uint32_t>(delta.kind)});
    if (prev) prev(delta);
  };
}

void Fleet::journal_diagnosis(const NetworkDiagnosis& diag) {
  telemetry::TelemetryHub* hub = config_.telemetry;
  if (hub == nullptr) return;
  const std::uint64_t now = runtime_->now();
  for (const auto& link : diag.links) {
    // arg packs the far end: [b:32][port_a:16][port_b:16].
    const std::uint64_t arg = (std::uint64_t{link.b} << 32) |
                              (std::uint64_t{link.port_a} << 16) |
                              std::uint64_t{link.port_b};
    hub->record({now, link.a, 0, shard_epoch(link.a), arg,
                 telemetry::EventKind::kDiagnosis, telemetry::kDiagLink});
  }
  for (const auto& sw : diag.switches) {
    hub->record({now, sw.sw, 0, shard_epoch(sw.sw), 0,
                 telemetry::EventKind::kDiagnosis, telemetry::kDiagSwitch});
  }
  for (const auto& fault : diag.isolated) {
    hub->record({now, fault.sw, fault.cookie, shard_epoch(fault.sw), 0,
                 telemetry::EventKind::kDiagnosis,
                 telemetry::kDiagIsolatedRule});
  }
}

void Fleet::publish_telemetry() {
  telemetry::TelemetryHub* hub = config_.telemetry;
  if (hub == nullptr) return;
  const Stats snap = stats_snapshot();
  telemetry::Exporter& exp = hub->exporter();
  exp.set_counter("monocle_fleet_rounds_started_total", "",
                  snap.rounds_started);
  exp.set_counter("monocle_fleet_probes_injected_total", "",
                  snap.probes_injected);
  exp.set_counter("monocle_fleet_alarms_total", "", snap.alarms);
  exp.set_counter("monocle_fleet_diagnoses_total", "", snap.diagnoses);
  exp.set_counter("monocle_fleet_flow_mods_routed_total", "",
                  snap.flow_mods_routed);
  exp.set_counter("monocle_fleet_deltas_observed_total", "",
                  snap.deltas_observed);
  exp.set_counter("monocle_fleet_evidence_passes_total", "",
                  snap.evidence_passes);
  // Scheduler observability: the last-planned per-shard budgets and
  // backlogs, plus the fleet-wide staleness p95 across shards.  Reads go
  // through the budgeter's snapshot (mutexed), so a scrape thread may call
  // this mid-plan.
  budgeter_.snapshot(budget_views_);
  std::vector<std::uint64_t> stale;
  stale.reserve(budget_views_.size());
  // Names and labels go in as string_views: updating an existing series
  // builds no std::string key.
  for (const BudgetScheduler::ShardView& v : budget_views_) {
    const telemetry::SwitchLabel labels(v.sw);
    exp.set_gauge("monocle_fleet_shard_budget", labels.view(),
                  static_cast<double>(v.budget));
    exp.set_gauge("monocle_fleet_shard_backlog", labels.view(),
                  static_cast<double>(v.backlog));
    stale.push_back(v.staleness_ns);
  }
  if (!stale.empty()) {
    std::sort(stale.begin(), stale.end());
    const std::size_t idx =
        std::min(stale.size() - 1, (stale.size() * 95) / 100);
    exp.set_gauge("monocle_fleet_staleness_p95_ns", "",
                  static_cast<double>(stale[idx]));
  }
  exp.set_counter("monocle_fleet_budget_rounds_planned_total", "",
                  budgeter_.rounds_planned());
}

Monitor* Fleet::add_shard(SwitchId sw, channel::SwitchBackend& backend,
                          Multiplexer& mux, Monitor::Hooks hooks) {
  mux_ = &mux;  // prepare() pre-resolves its routes for the concurrent phase
  hooks.to_switch = [&backend](const openflow::Message& m) { backend.send(m); };
  if (!hooks.to_controller) {
    // Live monitors often run without a controller behind them.
    hooks.to_controller = [](const openflow::Message&) {};
  }
  if (!hooks.inject) {
    // Ordinal-addressed injection: the shard's dense index is captured once
    // here, so the steady cycle's per-probe routing does no id lookup at
    // all (and the bytes travel as a borrowed span end to end).  Under the
    // multi-worker engine the hook also carries the owning worker's
    // InjectContext, keeping the Multiplexer send path read-only on shard
    // state when two workers deliver through one upstream switch.
    const SwitchOrdinal ord = mux.intern(sw);
    Multiplexer::InjectContext* ctx = nullptr;
    if (multi_worker()) {
      if (inject_ctxs_.empty()) inject_ctxs_.resize(worker_count());
      auto& slot = inject_ctxs_[next_shard_worker()];
      if (!slot) slot = std::make_unique<Multiplexer::InjectContext>();
      ctx = slot.get();
    }
    hooks.inject = [&mux, ord, ctx](std::uint16_t in_port,
                                    std::span<const std::uint8_t> bytes) {
      return mux.inject_at(ord, in_port, bytes, ctx);
    };
  }
  Monitor* mon = add_shard(sw, std::move(hooks));
  mux.register_monitor(sw, mon);
  mux.bind_backend(sw, backend, mon);
  // The registrations above capture the raw Monitor*; the Fleet owns their
  // teardown (a monitor-less rebind) so shard destruction cannot leave the
  // backend delivering into freed memory.
  shard_unbind_[sw] = [sw, &backend, &mux] {
    mux.unregister_monitor(sw);
    mux.bind_backend(sw, backend, nullptr);
  };
  return mon;
}

Fleet::~Fleet() {
  stop();
  for (auto& [sw, unbind] : shard_unbind_) unbind();
  shard_unbind_.clear();
}

bool Fleet::remove_shard(SwitchId sw) {
  const auto it = shards_.find(sw);
  if (it == shards_.end()) return false;
  // Multi-worker: the shard's timers live on its worker's Runtime, so the
  // stop must run THERE (the handoff rule).  Afterwards the Monitor is
  // inert — no future round can reach it (round_work_ is repartitioned from
  // shards_ each round) — so destroying it here is safe.
  if (engine_ != nullptr && engine_->running()) {
    Monitor* doomed = it->second.get();
    engine_->run_on(shard_worker(sw), [doomed] { doomed->stop(); });
    drain_mailbox();
  } else {
    it->second->stop();
  }
  if (const auto unbind = shard_unbind_.find(sw);
      unbind != shard_unbind_.end()) {
    unbind->second();
    shard_unbind_.erase(unbind);
  }
  shards_.erase(it);
  shard_worker_.erase(sw);
  if (config_.on_shard_removed) config_.on_shard_removed(sw);
  return true;
}

Monitor* Fleet::monitor(SwitchId sw) const {
  const auto it = shards_.find(sw);
  return it == shards_.end() ? nullptr : it->second.get();
}

void Fleet::set_schedule(RoundSchedule schedule) {
  schedule_ = std::move(schedule);
  cursor_ = 0;
}

void Fleet::warm_caches() {
  std::vector<Monitor*> work;
  work.reserve(shards_.size());
  for (auto& [sw, monitor] : shards_) work.push_back(monitor.get());
  if (work.empty()) return;

  std::size_t threads = config_.warmup_threads > 0
                            ? static_cast<std::size_t>(config_.warmup_threads)
                            : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, work.size());
  if (threads <= 1) {
    for (Monitor* monitor : work) monitor->warm_probe_cache();
    return;
  }
  // Shared pool: each worker warms whole shards (a shard's batch session
  // pipeline is single-threaded, so shards are the unit of parallelism).
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        work[i]->warm_probe_cache();
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
}

void Fleet::prepare() {
  if (prepared_) return;
  prepared_ = true;
  if (schedule_.round_count() == 0) {
    // Sequential fallback: one shard per round, ascending switch id.
    std::vector<SwitchId> ids;
    ids.reserve(shards_.size());
    for (const auto& [sw, monitor] : shards_) ids.push_back(sw);
    schedule_ = RoundSchedule::sequential(ids);
  }
  for (auto& [sw, monitor] : shards_) monitor->install_infrastructure();
  warm_caches();
  for (auto& [sw, monitor] : shards_) monitor->start_externally_paced();
  if (multi_worker()) {
    // Everything above ran single-threaded; the engine's first barrier
    // publishes it to the workers.  The round job is registered once here
    // so run_round() never constructs a callable (zero-alloc rounds).
    engine_ = std::make_unique<RoundEngine>(config_.round_workers);
    round_work_.assign(engine_->worker_count(), {});
    round_budget_.assign(engine_->worker_count(), {});
    engine_->set_round_job([this](std::size_t worker) {
      std::size_t injected = 0;
      const std::vector<Monitor*>& work = round_work_[worker];
      const std::vector<std::size_t>& budget = round_budget_[worker];
      for (std::size_t i = 0; i < work.size(); ++i) {
        injected += work[i]->steady_probe_burst(budget[i]);
      }
      return injected;
    });
    // Pre-resolve every injection route: the concurrent phase must never
    // take the lazy resolve path (it resizes the cache under readers).
    if (mux_ != nullptr) mux_->warm_routes();
  }
  drain_mailbox();  // deltas observed during install/warm-up
}

void Fleet::start() {
  if (running_) return;
  prepare();
  running_ = true;
  round_timer_ = runtime_->schedule(config_.warmup, [this] {
    round_timer_ = 0;
    if (!running_) return;
    start_round();
    schedule_next_round();
  });
}

void Fleet::schedule_next_round() {
  round_timer_ = runtime_->schedule(config_.round_interval, [this] {
    round_timer_ = 0;
    if (!running_) return;
    start_round();
    schedule_next_round();
  });
}

void Fleet::stop() {
  running_ = false;
  runtime_->cancel(round_timer_);
  round_timer_ = 0;
  runtime_->cancel(evidence_timer_);
  evidence_timer_ = 0;
  // Join the workers FIRST: after stop() returns every shard is exclusively
  // ours again (thread join orders all their writes before our reads), so
  // the Monitor stops below run race-free on this thread even though the
  // shards lived on workers a moment ago.  Works mid-round too — an
  // in-flight run_round() finishes behind the engine's ops mutex before the
  // join begins.
  if (engine_ != nullptr) engine_->stop();
  for (auto& [sw, monitor] : shards_) monitor->stop();
  drain_mailbox();
}

std::size_t Fleet::start_round() {
  if (schedule_.round_count() == 0) return 0;
  const std::vector<SwitchId>& round = schedule_.round(cursor_);
  cursor_ = (cursor_ + 1) % schedule_.round_count();
  // The fault plan and checkpoint writer index rounds from 0; the counter
  // itself resumes across restarts (FleetCheckpoint), so a restored fleet's
  // crash schedule lines up with the control fleet's.
  const std::uint64_t round_index = stats_.rounds_started;
  bump(stats_.rounds_started);
  if (config_.crash_plan != nullptr) apply_crash_plan(round, round_index);
  // Budgets are planned here, on the orchestration thread, BEFORE the
  // engine barrier — the previous round's barrier already ordered every
  // shard's writes before these reads (same precedent as run_evidence_pass).
  plan_budgets(round);
  std::size_t injected = 0;
  if (engine_ != nullptr && engine_->running()) {
    // Partition the round's shards by owning worker (vectors keep capacity:
    // allocation-free once warm) and run one engine barrier.  Per-worker
    // iteration order follows the schedule's switch order, so each Monitor
    // sees exactly the event sequence it would single-threaded —
    // classifications stay byte-identical for any worker count.  The budget
    // vector rides along index-parallel so the preregistered round job
    // never looks anything up.
    for (auto& work : round_work_) work.clear();
    for (auto& budget : round_budget_) budget.clear();
    for (const SwitchId sw : round) {
      const auto it = shards_.find(sw);
      if (it == shards_.end()) continue;  // scheduled but unmonitored switch
      if (shard_quarantined(sw) || crash_plan_blocks(sw, round_index)) {
        continue;  // no burst: the heartbeat stalls, the supervisor sees it
      }
      const std::size_t worker = shard_worker(sw);
      round_work_[worker].push_back(it->second.get());
      round_budget_[worker].push_back(budgeter_.budget_for(sw));
    }
    injected = engine_->run_round();
    bump(stats_.probes_injected, injected);
    drain_mailbox();
  } else {
    for (const SwitchId sw : round) {
      const auto it = shards_.find(sw);
      if (it == shards_.end()) continue;  // scheduled but unmonitored switch
      if (shard_quarantined(sw) || crash_plan_blocks(sw, round_index)) {
        continue;
      }
      injected += it->second->steady_probe_burst(budgeter_.budget_for(sw));
    }
    bump(stats_.probes_injected, injected);
  }
  // Watchdog sweep, then the incremental checkpoint — in that order, so a
  // shard quarantined THIS round is never snapshotted in its wedged state.
  if (supervisor_.enabled) supervise_round(round);
  if (config_.checkpoints != nullptr) {
    write_round_checkpoint(round, round_index);
  }
  return injected;
}

void Fleet::plan_budgets(const std::vector<SwitchId>& round) {
  budget_members_.clear();
  pressure_.clear();
  for (const SwitchId sw : round) {
    const auto it = shards_.find(sw);
    if (it == shards_.end()) continue;
    if (shard_quarantined(sw)) continue;  // no burst, no budget share
    // Non-const: a staleness read rebuilds an order a delta cleared.  The
    // shard's worker is parked between barriers, so this thread may.
    Monitor& mon = *it->second;
    ShardPressure p;
    p.backlog = mon.pending_update_count();
    p.deltas_applied = mon.stats().deltas_applied;
    p.suspects = mon.suspect_rule_count();
    p.failed = mon.failed_rule_count();
    p.evidence_confidence = evidence_.switch_confidence(sw);
    p.staleness = mon.steady_staleness_max();
    budget_members_.push_back(sw);
    pressure_.push_back(p);
  }
  budgeter_.plan_round(budget_members_, pressure_);
}

bool Fleet::route_flow_mod(SwitchId sw, const openflow::FlowMod& fm,
                           std::uint32_t xid) {
  const auto it = shards_.find(sw);
  if (it == shards_.end()) return false;
  bump(stats_.flow_mods_routed);
  const openflow::Message msg = openflow::make_message(xid, fm);
  // Delta routing under the multi-worker engine: the FlowMod mutates the
  // shard's table and timers, so it executes on the owning worker (the
  // handoff), not here.
  if (engine_ != nullptr && engine_->running()) {
    Monitor* mon = it->second.get();
    engine_->run_on(shard_worker(sw), [mon, &msg] {
      mon->on_controller_message(msg);
    });
    drain_mailbox();
    return true;
  }
  it->second->on_controller_message(msg);
  return true;
}

openflow::Epoch Fleet::shard_epoch(SwitchId sw) const {
  const Monitor* mon = monitor(sw);
  return mon == nullptr ? 0 : mon->epoch();
}

void Fleet::note_alarm() {
  if (!config_.on_diagnosis) return;
  // The first alarm arms the evidence pipeline; it then self-schedules until
  // the fabric is clean again.
  if (evidence_timer_ == 0) schedule_evidence_pass(config_.localize_debounce);
}

void Fleet::note_delta(SwitchId sw, const openflow::TableDelta& delta) {
  auto& recent = recent_deltas_[sw];
  const netbase::SimTime now = runtime_->now();
  for (const std::uint64_t cookie : delta.affected_cookies()) {
    recent.emplace_back(cookie, now);
  }
  while (!recent.empty() &&
         recent.front().second + config_.churn_exclusion <= now) {
    recent.pop_front();
  }
}

void Fleet::collect_reports(
    std::vector<SwitchFailureReport>& reports,
    std::vector<std::unordered_set<std::uint64_t>>& exclusions) const {
  const netbase::SimTime now = runtime_->now();
  reports.reserve(shards_.size());
  exclusions.reserve(shards_.size());
  for (const auto& [sw, monitor] : shards_) {
    std::unordered_set<std::uint64_t> excluded;
    for (const std::uint64_t cookie : monitor->pending_update_cookies()) {
      excluded.insert(cookie);
    }
    if (const auto it = recent_deltas_.find(sw); it != recent_deltas_.end()) {
      for (const auto& [cookie, when] : it->second) {
        if (when + config_.churn_exclusion > now) excluded.insert(cookie);
      }
    }
    exclusions.push_back(std::move(excluded));
    reports.push_back({sw, &monitor->expected_table(),
                       &monitor->failed_rules(), nullptr});
  }
  // Wire the pointers only after `exclusions` stopped reallocating.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!exclusions[i].empty()) reports[i].excluded = &exclusions[i];
  }
}

void Fleet::schedule_evidence_pass(netbase::SimTime delay) {
  evidence_timer_ = runtime_->schedule(delay, [this] {
    evidence_timer_ = 0;
    run_evidence_pass();
  });
}

void Fleet::run_evidence_pass() {
  bump(stats_.evidence_passes);
  std::vector<SwitchFailureReport> reports;
  std::vector<std::unordered_set<std::uint64_t>> exclusions;
  collect_reports(reports, exclusions);
  evidence_.observe(reports, *view_, runtime_->now());

  const NetworkDiagnosis diag = evidence_.diagnosis();
  // Publish confirmed, CHANGED diagnoses only: a stable fault pages once.
  std::vector<std::array<std::uint64_t, 4>> sig;
  for (const auto& link : diag.links) {
    sig.push_back({1, link.a, (std::uint64_t{link.port_a} << 16) | link.port_b,
                   link.b});
  }
  for (const auto& sw : diag.switches) sig.push_back({2, sw.sw, 0, 0});
  for (const auto& fault : diag.isolated) {
    sig.push_back({3, fault.sw, fault.cookie, 0});
  }
  if (!diag.healthy() && sig != published_sig_) {
    published_sig_ = std::move(sig);
    bump(stats_.diagnoses);
    journal_diagnosis(diag);
    if (config_.on_diagnosis) config_.on_diagnosis(diag);
  } else if (diag.healthy()) {
    published_sig_.clear();
  }

  // Keep observing while anything is failed or suspicion is alive; a later
  // alarm re-arms the pipeline through note_alarm once the fabric is clean.
  if (failed_rule_count() > 0 || evidence_.suspect_count() > 0) {
    schedule_evidence_pass(config_.evidence_interval);
  }
}

NetworkDiagnosis Fleet::diagnose() const {
  std::vector<SwitchFailureReport> reports;
  std::vector<std::unordered_set<std::uint64_t>> exclusions;
  collect_reports(reports, exclusions);
  return localize_network(reports, *view_);
}

std::size_t Fleet::outstanding_probes() const {
  std::size_t total = 0;
  for (const auto& [sw, monitor] : shards_) {
    total += monitor->outstanding_probe_count();
  }
  return total;
}

std::size_t Fleet::failed_rule_count() const {
  std::size_t total = 0;
  for (const auto& [sw, monitor] : shards_) {
    total += monitor->failed_rule_count();
  }
  return total;
}

std::size_t Fleet::monitorable_rule_count() const {
  std::size_t total = 0;
  for (const auto& [sw, monitor] : shards_) {
    total += monitor->monitorable_rule_count();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Multi-worker driver surface
// ---------------------------------------------------------------------------

std::size_t Fleet::shard_worker(SwitchId sw) const {
  const auto it = shard_worker_.find(sw);
  return it == shard_worker_.end() ? 0 : it->second;
}

void Fleet::run_on_worker(std::size_t worker,
                          const std::function<void()>& fn) {
  if (engine_ != nullptr && engine_->running()) {
    engine_->run_on(worker, fn);
    drain_mailbox();
    return;
  }
  fn();  // single-threaded (or torn-down) mode: everything is ours already
  drain_mailbox();
}

Fleet::Stats Fleet::stats_snapshot() const {
  // Quiesce first: the engine barrier sequences every worker's relaxed
  // increments before the loads below, so the snapshot is a consistent
  // point-in-time read (the field-by-field torn-read regression).
  if (engine_ != nullptr) engine_->quiesce();
  const auto load = [](const std::uint64_t& field) {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(field))
        .load(std::memory_order_relaxed);
  };
  Stats out;
  out.rounds_started = load(stats_.rounds_started);
  out.probes_injected = load(stats_.probes_injected);
  out.alarms = load(stats_.alarms);
  out.diagnoses = load(stats_.diagnoses);
  out.flow_mods_routed = load(stats_.flow_mods_routed);
  out.deltas_observed = load(stats_.deltas_observed);
  out.evidence_passes = load(stats_.evidence_passes);
  return out;
}

void Fleet::post_mailbox(MailboxItem item) {
  std::lock_guard lock(mailbox_mu_);
  mailbox_.push_back(std::move(item));
}

void Fleet::drain_mailbox() {
  std::vector<MailboxItem> items;
  {
    std::lock_guard lock(mailbox_mu_);
    items.swap(mailbox_);  // empty steady state: two empty vectors, no alloc
  }
  for (MailboxItem& item : items) {
    switch (item.kind) {
      case MailboxItem::Kind::kAlarm:
        note_alarm();
        break;
      case MailboxItem::Kind::kDelta:
        note_delta(item.sw, item.delta);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-safe warm restart + supervised shard recovery (docs/DESIGN.md §15)
// ---------------------------------------------------------------------------

void Fleet::collect_journal_tails(
    std::unordered_map<SwitchId, JournalTail>& tails) const {
  if (config_.telemetry == nullptr || tails.empty()) return;
  // `<`, not `<=`: a verdict fired after the snapshot in a quiet epoch (no
  // churn advancing the table version) carries the snapshot's own epoch
  // stamp, and dropping it would lose the verdict.  Keeping same-epoch
  // records instead re-seeds verdicts the snapshot already holds
  // (seed_verdict is idempotent) and conservatively invalidates a few
  // same-epoch manifest probes — one spare SAT regen, never a wrong state.
  config_.telemetry->journal().replay([&](const telemetry::EventRecord& rec) {
    const auto it = tails.find(rec.shard);
    if (it == tails.end() || rec.epoch < it->second.epoch) return;
    if (rec.kind == telemetry::EventKind::kDelta) {
      it->second.stale.insert(rec.cookie);
    } else if (rec.kind == telemetry::EventKind::kVerdict) {
      it->second.verdicts.emplace_back(rec.cookie,
                                       static_cast<RuleState>(rec.detail));
    }
  });
}

Fleet::RestoreReport Fleet::restore() {
  RestoreReport rep;
  if (config_.checkpoints == nullptr) return rep;
  const auto latest = config_.checkpoints->load_latest();
  if (const auto it = latest.find(Checkpoint::kFleetStateKey);
      it != latest.end()) {
    if (const auto fc = FleetCheckpoint::decode(it->second)) {
      budgeter_.set_carry(fc->budget_carry);
      stats_.rounds_started = fc->rounds_started;
      rep.fleet_state_restored = true;
    }
  }
  std::unordered_map<SwitchId, Checkpoint> snapshots;
  std::unordered_map<SwitchId, JournalTail> tails;
  for (const auto& [sw, monitor] : shards_) {
    std::optional<Checkpoint> cp;
    if (const auto it = latest.find(sw); it != latest.end()) {
      cp = Checkpoint::decode(it->second);
    }
    if (!cp.has_value() || cp->shard != sw) {
      ++rep.shards_cold;  // no/invalid snapshot: this shard starts cold
      continue;
    }
    tails[sw].epoch = cp->epoch;
    snapshots.emplace(sw, std::move(*cp));
  }
  // The journal outlives the snapshots by up to a full checkpoint rotation:
  // deltas past a snapshot's epoch invalidate manifest probes, verdicts past
  // it re-seed silently so nothing already published is re-raised (or lost).
  collect_journal_tails(tails);
  for (auto& [sw, monitor] : shards_) {
    const auto snap = snapshots.find(sw);
    if (snap == snapshots.end()) continue;
    const std::uint64_t budget = snap->second.budget;
    const JournalTail& tail = tails.at(sw);
    const Monitor::RestoreStats rs =
        monitor->restore_checkpoint(std::move(snap->second), &tail.stale);
    for (const auto& [cookie, state] : tail.verdicts) {
      monitor->seed_verdict(cookie, state);
    }
    if (budget > 0) budgeter_.seed_budget(sw, budget);
    ++rep.shards_restored;
    rep.verdicts_seeded += rs.verdicts;
    rep.suspects_rearmed += rs.suspects;
    rep.manifest_admitted += rs.manifest_admitted;
    rep.manifest_dropped += rs.manifest_dropped;
    rep.tail_verdicts += tail.verdicts.size();
    rep.tail_deltas += tail.stale.size();
  }
  // Diagnosis dedup across the restart: rebuild the published-signature set
  // from the journal's trailing kDiagnosis burst (one publication = one
  // journal_diagnosis call = one shared when_ns), so a stable fault the
  // dead incarnation already paged does not page again.
  if (config_.telemetry != nullptr) {
    std::uint64_t last_when = 0;
    std::vector<std::array<std::uint64_t, 4>> sig;
    config_.telemetry->journal().replay([&](const telemetry::EventRecord& rec) {
      if (rec.kind != telemetry::EventKind::kDiagnosis) return;
      if (rec.when_ns != last_when) {
        sig.clear();
        last_when = rec.when_ns;
      }
      switch (rec.detail) {
        case telemetry::kDiagLink:
          // journal_diagnosis packs arg = [b:32][port_a:16][port_b:16];
          // the signature wants {1, a, (port_a<<16)|port_b, b}.
          sig.push_back(
              {1, rec.shard, rec.arg & 0xFFFFFFFFull, rec.arg >> 32});
          break;
        case telemetry::kDiagSwitch:
          sig.push_back({2, rec.shard, 0, 0});
          break;
        case telemetry::kDiagIsolatedRule:
          sig.push_back({3, rec.shard, rec.cookie, 0});
          break;
        default:
          break;
      }
    });
    if (!sig.empty()) published_sig_ = std::move(sig);
  }
  return rep;
}

void Fleet::enable_supervision(SupervisorOptions opts) {
  supervisor_.options = opts;
  supervisor_.enabled = true;
}

bool Fleet::crash_plan_blocks(SwitchId sw, std::uint64_t round_index) const {
  const CrashPlan* plan = config_.crash_plan;
  if (plan == nullptr) return false;
  return plan->shard_dead(sw, round_index) ||
         plan->shard_wedged(sw, round_index) ||
         plan->worker_wedged(shard_worker(sw), round_index);
}

void Fleet::apply_crash_plan(const std::vector<SwitchId>& round,
                             std::uint64_t round_index) {
  CrashPlan* plan = config_.crash_plan;
  for (const SwitchId sw : round) {
    const auto it = shards_.find(sw);
    if (it == shards_.end()) continue;
    Monitor* mon = it->second.get();
    if (plan->kill_fires(sw, round_index)) {
      // The shard "process" dies: timers and steady pacing die with it, on
      // its owning worker.  The supervisor is told nothing — it must detect
      // the death from the stalled heartbeat alone.
      ++plan->stats().kills;
      run_on_worker(shard_worker(sw), [mon] { mon->stop(); });
    }
    if (plan->shard_wedged(sw, round_index) ||
        plan->worker_wedged(shard_worker(sw), round_index)) {
      ++plan->stats().wedge_rounds;
    }
    // Channel tears are edge-triggered on the window boundaries, so the
    // Monitor's own outage machinery (probe drop, suspect reset, barrier
    // epoch, reconnect re-assert) runs exactly once per transition.
    const bool torn = plan->channel_torn(sw, round_index);
    const bool was_torn = torn_channels_.contains(sw);
    if (torn != was_torn) {
      if (torn) {
        torn_channels_.insert(sw);
      } else {
        torn_channels_.erase(sw);
      }
      run_on_worker(shard_worker(sw),
                    [mon, torn] { mon->on_channel_state(!torn); });
    }
    if (torn) ++plan->stats().tear_rounds;
  }
}

void Fleet::supervise_round(const std::vector<SwitchId>& round) {
  // Heartbeat sweep: a scheduled, non-quarantined shard whose burst counter
  // did not advance this round missed a beat.
  std::vector<SwitchId> stalled;
  for (const SwitchId sw : round) {
    const auto it = shards_.find(sw);
    if (it == shards_.end()) continue;
    if (supervisor_.quarantined.contains(sw)) continue;
    const std::uint32_t burst = it->second->burst_count();
    const auto [lb, fresh] = supervisor_.last_burst.try_emplace(sw, burst);
    if (fresh) continue;  // first observation: baseline only
    if (burst != lb->second) {
      lb->second = burst;
      supervisor_.missed[sw] = 0;
      continue;
    }
    ++supervisor_.stats.heartbeats_missed;
    if (++supervisor_.missed[sw] >= supervisor_.options.missed_rounds) {
      supervisor_.missed[sw] = 0;
      supervisor_.quarantined.insert(sw);
      ++supervisor_.stats.quarantines;
      stalled.push_back(sw);
    }
  }
  if (stalled.empty() || !supervisor_.options.auto_restore) return;
  // Stuck-worker call: enough of ONE worker's shards stalling in the same
  // sweep reads as the worker being wedged, not the shards — those migrate
  // to the next worker; isolated stalls restore in place.
  std::map<std::size_t, std::size_t> per_worker;
  for (const SwitchId sw : stalled) ++per_worker[shard_worker(sw)];
  for (const SwitchId sw : stalled) {
    const std::size_t worker = shard_worker(sw);
    std::size_t target = worker;
    if (multi_worker() && worker_count() > 1 &&
        per_worker[worker] >= supervisor_.options.min_worker_shards_stuck) {
      target = (worker + 1) % worker_count();
    }
    restore_shard(sw, target);
  }
}

bool Fleet::restore_shard(SwitchId sw) {
  return restore_shard(sw, shard_worker(sw));
}

bool Fleet::restore_shard(SwitchId sw, std::size_t new_worker) {
  const auto it = shards_.find(sw);
  if (it == shards_.end()) return false;
  Monitor* mon = it->second.get();
  const std::size_t old_worker = shard_worker(sw);
  // Reset on the OLD worker — its Runtime owns whatever timers survive.
  run_on_worker(old_worker, [mon] { mon->reset_for_recovery(); });
  if (new_worker != old_worker && multi_worker()) {
    mon->rebind_runtime(
        config_.worker_runtimes[new_worker % config_.worker_runtimes.size()]);
    shard_worker_[sw] = new_worker;
    ++supervisor_.stats.worker_reassignments;
  }
  std::optional<Checkpoint> cp;
  if (config_.checkpoints != nullptr) {
    if (const auto blob = config_.checkpoints->load(sw)) {
      cp = Checkpoint::decode(*blob);
    }
  }
  // Rehydrate and resume on the (possibly new) owning worker.  A shard with
  // no surviving snapshot still goes through restore_checkpoint — with an
  // empty snapshot at the current epoch — because the generation bump and
  // the rule-state re-seed are exactly the cold-reset semantics too.
  run_on_worker(shard_worker(sw), [&] {
    if (cp.has_value() && cp->shard == sw) {
      std::unordered_map<SwitchId, JournalTail> tails;
      JournalTail& tail = tails[sw];
      tail.epoch = cp->epoch;
      collect_journal_tails(tails);
      const std::uint64_t budget = cp->budget;
      mon->restore_checkpoint(std::move(*cp), &tail.stale);
      for (const auto& [cookie, state] : tail.verdicts) {
        mon->seed_verdict(cookie, state);
      }
      if (budget > 0) budgeter_.seed_budget(sw, budget);
      ++supervisor_.stats.restores;
    } else {
      Checkpoint cold;
      cold.shard = sw;
      cold.epoch = mon->epoch();
      mon->restore_checkpoint(std::move(cold), nullptr);
      ++supervisor_.stats.cold_restores;
    }
    mon->start_externally_paced();
  });
  // Re-admit: back into the round rotation; catch-up comes from the
  // BudgetScheduler's staleness pressure, not a special burst.
  if (supervisor_.quarantined.erase(sw) > 0) {
    ++supervisor_.stats.readmissions;
  }
  supervisor_.last_burst[sw] = mon->burst_count();
  supervisor_.missed[sw] = 0;
  if (config_.crash_plan != nullptr) config_.crash_plan->revive_shard(sw);
  return true;
}

void Fleet::write_round_checkpoint(const std::vector<SwitchId>& round,
                                   std::uint64_t round_index) {
  if (round.empty()) return;
  // One member per round — the least-recently-snapshotted one — so
  // incremental checkpointing spreads the encode cost across rounds yet
  // provably re-covers every shard within one rotation's worth of
  // appearances.
  Monitor* target = nullptr;
  SwitchId target_sw = 0;
  std::uint64_t target_age = ~std::uint64_t{0};
  for (const SwitchId sw : round) {
    const auto sit = shards_.find(sw);
    if (sit == shards_.end()) continue;
    // A quarantined shard's state is mid-wedge, and a dead/wedged process
    // could not have written a checkpoint — skip both.
    if (shard_quarantined(sw) || crash_plan_blocks(sw, round_index)) continue;
    const auto age_it = checkpoint_age_.find(sw);
    const std::uint64_t age =
        age_it == checkpoint_age_.end() ? 0 : age_it->second;
    if (age < target_age) {
      target = sit->second.get();
      target_sw = sw;
      target_age = age;
    }
  }
  if (target == nullptr) return;
  checkpoint_age_[target_sw] = round_index + 1;
  target->encode_checkpoint(checkpoint_buf_, budgeter_.budget_for(target_sw));
  config_.checkpoints->append(target_sw, checkpoint_buf_);
  // The fleet-level record rides along: budget carry + the round counter
  // (so a restored fleet's crash/round indexing stays aligned).
  FleetCheckpoint fc;
  fc.budget_carry = budgeter_.carry();
  fc.rounds_started = stats_.rounds_started;
  fc.encode_into(fleet_checkpoint_buf_);
  config_.checkpoints->append(Checkpoint::kFleetStateKey,
                              fleet_checkpoint_buf_);
}

}  // namespace monocle
