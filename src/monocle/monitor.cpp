#include "monocle/monitor.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "monocle/checkpoint.hpp"
#include "monocle/probe_batch.hpp"

namespace monocle {

using netbase::ProbeMetadata;
using netbase::SimTime;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Match;
using openflow::Message;
using openflow::Rule;

Monitor::Monitor(Config config, Runtime* runtime, const NetworkView* view,
                 const CatchPlan* plan, Hooks hooks)
    : config_(std::move(config)),
      runtime_(runtime),
      view_(view),
      plan_(plan),
      hooks_(std::move(hooks)) {
  cache_ = std::make_shared<ProbeCache>();
}

bool Monitor::is_infrastructure_cookie(std::uint64_t cookie) {
  const std::uint64_t prefix = cookie >> 48;
  return prefix == 0xCA7C || prefix == 0xF117 || prefix == 0xD209;
}

void Monitor::install_infrastructure() {
  infrastructure_installed_ = true;
  for (const FlowMod& fm : plan_->rules_for(config_.switch_id)) {
    apply_table_delta(expected_.apply_add(fm.rule()));
    rule_states_[fm.cookie] = RuleState::kConfirmed;
    Message msg = openflow::make_message(0, fm);
    hooks_.to_switch(msg);
    ++stats_.flowmods_forwarded;
  }
}

void Monitor::reassert_infrastructure() {
  if (!infrastructure_installed_) return;
  for (const FlowMod& fm : plan_->rules_for(config_.switch_id)) {
    hooks_.to_switch(openflow::make_message(0, fm));
    ++stats_.flowmods_forwarded;
  }
}

void Monitor::on_channel_state(bool up) {
  // Record "was ever up" even when no transition happens: the bind-time
  // seeding of an already-up backend must still arm the disconnect
  // accounting for the first genuine loss.
  if (up) channel_was_up_ = true;
  if (up == channel_up_) return;
  channel_up_ = up;
  if (!up) {
    // A backend bound before its first handshake starts "down"; only a
    // genuine loss of an up channel counts as a disconnect.
    if (channel_was_up_) ++stats_.channel_disconnects;
    // A dead channel can neither carry our injections nor return echoes:
    // drop every in-flight probe and the timeout timer (nothing dangles, no
    // rule is failed for probes the disconnect ate) and pause the steady
    // cycle.
    clear_outstanding();
    // Suspicions die with the channel: their strikes may be the OUTAGE's
    // timeouts, so the K-of-N evidence is void — back to unknown, and the
    // steady cycle re-judges each rule from scratch after the reconnect.
    for (auto& [cookie, s] : suspects_) {
      runtime_->cancel(s.timer);
      const auto st = rule_states_.find(cookie);
      if (st != rule_states_.end() && st->second == RuleState::kSuspect) {
        st->second = RuleState::kConfirmed;
      }
    }
    suspects_.clear();
    // Echoes that left before the cut are stale on arrival: a barrier epoch
    // separates pre-outage injections from everything after.  (A channel
    // that was never up carried no probes, so there is nothing to stale.)
    if (channel_was_up_) epoch_floor_ = expected_.advance_epoch();
    runtime_->cancel(steady_timer_);
    steady_timer_ = 0;
    runtime_->cancel(warmup_timer_);
    warmup_timer_ = 0;
    // Pending updates must not be declared failed because the OUTAGE (not
    // the data plane) outlasted update_give_up: pause their give-up alarms;
    // the deadline restarts from the reconnect.  Their probe re-injection
    // cadence keeps running — probes travel via neighbor channels and may
    // confirm an update even while this switch's channel is down — but
    // silence accumulated while injections only queue is meaningless, so
    // negative-confirmation counters reset, and PROBELESS updates (whose
    // inject_timer is really a blind confirm-after-settle) pause entirely:
    // confirming blind during an outage would release barriers for a
    // FlowMod that may still be sitting in (or dropped from) the backend's
    // down queue.
    for (auto& [cookie, job] : updates_) {
      runtime_->cancel(job.give_up_timer);
      job.give_up_timer = 0;
      job.silent_injections = 0;
      if (!job.probe.has_value()) {
        runtime_->cancel(job.inject_timer);
        job.inject_timer = 0;
      }
    }
    if (hooks_.on_channel_change) hooks_.on_channel_change(false);
    return;
  }
  // Reconnected.  The switch may have restarted and lost its rules, so the
  // catching infrastructure goes out again (idempotent when it survived);
  // then the steady cycle re-arms from the top of the rule order.
  reassert_infrastructure();
  // FlowMods of still-unconfirmed updates may have died with the channel:
  // re-issue them (adds replace identical match+priority, deletes of absent
  // rules no-op, so this is idempotent too).  Their probes keep their
  // re-injection cadence and confirm once the data plane catches up.
  for (auto& [cookie, job] : updates_) {
    FlowMod fm;
    fm.match = job.rule.match;
    fm.priority = job.rule.priority;
    fm.cookie = job.rule.cookie;
    if (job.kind == UpdateJob::Kind::kDelete) {
      fm.command = FlowModCommand::kDeleteStrict;
    } else {
      fm.command = FlowModCommand::kAdd;
      fm.actions = job.rule.actions;
    }
    hooks_.to_switch(openflow::make_message(0, fm));
    ++stats_.flowmods_forwarded;
    if (job.give_up_timer == 0) schedule_update_give_up(cookie);
    if (!job.probe.has_value() && job.inject_timer == 0) {
      // Blind confirmation of probeless updates restarts its settle delay
      // from the reconnect (the re-issued FlowMod needs time to commit).
      job.inject_timer = runtime_->schedule(
          config_.negative_confirm_timeout,
          [this, cookie = job.rule.cookie] { confirm_update(cookie); });
    } else if (job.probe.has_value()) {
      // A flap mid-confirmation leaves the update's state UNKNOWN, not
      // failed: anything observed (or not observed) around the cut answers
      // for the channel.  Re-arm the probe cadence from the reconnect with
      // a settle head start for the re-issued FlowMod, and restart the
      // silence count — negative confirmation must be earned entirely by
      // post-reconnect injections.
      job.silent_injections = 0;
      runtime_->cancel(job.inject_timer);
      job.inject_timer = runtime_->schedule(
          config_.generation_delay,
          [this, cookie = job.rule.cookie] { inject_update_probe(cookie); });
    }
  }
  if (steady_running_ && config_.steady_probe_rate > 0 && steady_timer_ == 0) {
    schedule_steady_tick();
  }
  if (hooks_.on_channel_change) hooks_.on_channel_change(true);
}

void Monitor::start() {
  if (config_.steady_probe_rate > 0 && !steady_running_) {
    steady_running_ = true;
    // Warm-up: pre-generate every rule's probe on the live session while
    // the catching rules settle, so the steady cycle never pays a cold
    // per-rule generation.
    refill_probe_cache();
    warmup_timer_ = runtime_->schedule(config_.steady_warmup, [this] {
      warmup_timer_ = 0;
      if (steady_running_) schedule_steady_tick();
    });
  }
}

void Monitor::start_externally_paced() {
  if (steady_running_) return;
  steady_running_ = true;  // enables coalesced cache refills on invalidation
  refill_probe_cache();  // no-op for rules the Fleet warm-up already cached
}

void Monitor::stop() {
  steady_running_ = false;
  runtime_->cancel(warmup_timer_);
  warmup_timer_ = 0;
  runtime_->cancel(steady_timer_);
  steady_timer_ = 0;
  runtime_->cancel(refill_timer_);
  refill_timer_ = 0;
  batch_refill_scheduled_ = false;
  dirty_probe_cookies_.clear();
  clear_outstanding();
  for (auto& [cookie, s] : suspects_) runtime_->cancel(s.timer);
  suspects_.clear();
  for (auto& [cookie, job] : updates_) {
    runtime_->cancel(job.inject_timer);
    runtime_->cancel(job.give_up_timer);
  }
  updates_.clear();
}

std::size_t Monitor::steady_probe_burst(std::size_t max_probes) {
  expire_due_probes();  // tie rule: see timeouts_head_
  if (!steady_running_ || !channel_up_) return 0;
  std::size_t injected = 0;
  ++burst_seq_;
  for (std::size_t i = 0; i < max_probes; ++i) {
    SteadyEntry* slot = next_steady_entry();
    if (slot == nullptr) break;
    // At most one probe per rule per burst: a slot already picked in THIS
    // burst means the wheel has come full circle through every probeable
    // rule.
    if (slot->last_pick == burst_seq_) break;
    slot->last_pick = burst_seq_;
    // Rules whose injection path is down (or that just turned
    // unmonitorable) don't count — the Fleet's probes_injected stat must
    // report packets that actually left.
    if (inject_steady_probe(*slot)) ++injected;
  }
  // Round boundary: publish this shard's telemetry sample from the owning
  // worker (the ring is the only cross-thread surface; see DESIGN.md §13).
  if (stats_ring_ != nullptr) publish_telemetry();
  return injected;
}

void Monitor::publish_telemetry() {
  if (stats_ring_ == nullptr) return;
  refresh_solver_stats();  // O(live sessions), allocation-free
  using namespace telemetry;
  StatsSample s;
  s.shard = config_.switch_id;
  s.epoch = expected_.epoch();
  s.when_ns = runtime_->now();
  auto& c = s.counters;
  c[kProbesInjected] = stats_.probes_injected;
  c[kProbesCaught] = stats_.probes_caught;
  c[kStaleProbes] = stats_.stale_probes;
  c[kProbeGenerations] = stats_.probe_generations;
  c[kUpdatesConfirmed] = stats_.updates_confirmed;
  c[kUpdatesQueued] = stats_.updates_queued;
  c[kAlarms] = stats_.alarms;
  c[kFlowModsForwarded] = stats_.flowmods_forwarded;
  c[kChannelDisconnects] = stats_.channel_disconnects;
  c[kProbeCacheHits] = stats_.probe_cache_hits;
  c[kProbeCacheMisses] = stats_.probe_cache_misses;
  c[kProbeInvalidations] = stats_.probe_invalidations;
  c[kDeltasApplied] = stats_.deltas_applied;
  c[kDeltaRegens] = stats_.delta_regens;
  c[kScratchRegens] = stats_.scratch_regens;
  c[kStaleEpochDrops] = stats_.stale_epoch_drops;
  c[kProbeRetries] = stats_.probe_retries;
  c[kSuspectsRaised] = stats_.suspects_raised;
  c[kSuspectsConfirmed] = stats_.suspects_confirmed;
  c[kFlapSuppressions] = stats_.flap_suppressions;
  c[kGenerationTimeNs] =
      static_cast<std::uint64_t>(stats_.generation_time.count());
  c[kConfirmLatencyCount] = stats_.confirm_latency_count;
  c[kConfirmLatencySumNs] = stats_.confirm_latency_sum_ns;
  for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
    c[kConfirmLatencyBucket0 + b] = stats_.confirm_latency_hist[b];
  }
  c[kSolverSweeps] = stats_.solver_sweeps;
  c[kSolverRetiredClauses] = stats_.solver_retired_clauses;
  c[kFailedRules] = failed_.size();
  c[kOutstandingProbes] = outstanding_.size();
  c[kPendingUpdates] = updates_.size();
  c[kRuleFloorSize] = rule_floor_.size();
  stats_ring_->publish(s);
}

void Monitor::refresh_solver_stats() {
  MonitorStats& s = stats_;
  s.solver_sweeps = s.solver_retired_clauses = s.solver_retired_words = 0;
  s.solver_live_words = s.solver_vars = s.solver_retired_vars = 0;
  s.solver_live_vars = 0;
  for (const LiveSession& ls : live_sessions_) {
    const sat::SolverStats& st = ls.session->solver_stats();
    s.solver_sweeps += st.simplify_sweeps;
    s.solver_retired_clauses += st.retired_clauses;
    s.solver_retired_words += st.retired_arena_words;
    s.solver_live_words += ls.session->solver_arena_words();
    s.solver_vars += ls.session->solver_vars();
    s.solver_retired_vars += ls.session->solver_retired_vars();
    s.solver_live_vars += ls.session->solver_live_vars();
  }
}

netbase::SimTime Monitor::steady_staleness_max() const {
  const SimTime now = runtime_->now();
  SimTime worst = 0;
  for (const Rule& r : expected_.table().rules()) {
    if (is_infrastructure_cookie(r.cookie)) continue;
    const RuleState st = rule_state(r.cookie);
    if (st == RuleState::kUnmonitorable || st == RuleState::kPending) continue;
    const auto it = last_probed_.find(r.cookie);
    const SimTime last = it == last_probed_.end() ? 0 : it->second;
    worst = std::max(worst, now - std::min(now, last));
  }
  return worst;
}

void Monitor::collect_staleness(std::vector<netbase::SimTime>& out) const {
  const SimTime now = runtime_->now();
  for (const Rule& r : expected_.table().rules()) {
    if (is_infrastructure_cookie(r.cookie)) continue;
    const RuleState st = rule_state(r.cookie);
    if (st == RuleState::kUnmonitorable || st == RuleState::kPending) continue;
    const auto it = last_probed_.find(r.cookie);
    const SimTime last = it == last_probed_.end() ? 0 : it->second;
    out.push_back(now - std::min(now, last));
  }
}

void Monitor::warm_probe_cache() {
  refill_probe_cache();
  // Pre-craft every cached probe's wire frame (generation/nonce are
  // re-stamped per injection anyway): without this the first steady probe
  // of each rule crafts lazily, so a measured or allocation-gated phase
  // that starts before one full table cycle still sees one-time crafts —
  // with large tables under a round-robin fleet that tail can be thousands
  // of rounds long.  Warm-up should leave the steady cycle truly warm.
  for (auto& [cookie, entry] : cache_->entries) {
    if (!entry.probe.has_value() || entry.wire.valid()) continue;
    ProbeMetadata meta;
    meta.switch_id = config_.switch_id;
    meta.rule_cookie = entry.probe->rule_cookie;
    meta.generation = 0;
    meta.expected = hash_prediction(entry.probe->if_present);
    meta.nonce = 0;
    entry.wire = netbase::craft_probe_wire(entry.probe->packet, meta);
  }
  // Prewarm the outstanding-probe node pool (and the map's bucket array)
  // past the largest burst an elastic plan can assign: a shard whose
  // in-flight high-water first rises mid-measurement would otherwise
  // allocate map nodes on exactly the rounds a budget spike targets.
  constexpr std::size_t kPrewarmOutstanding = 32;
  while (outstanding_spares_.size() < kPrewarmOutstanding) {
    const auto nonce =
        static_cast<std::uint32_t>(0xFFFF0000u + outstanding_spares_.size());
    const auto res = outstanding_.try_emplace(nonce);
    if (!res.second) break;  // a live probe owns this nonce: don't steal it
    outstanding_spares_.push_back(outstanding_.extract(res.first));
  }
}

std::size_t Monitor::monitorable_rule_count() const {
  std::size_t count = 0;
  for (const Rule& r : expected_.table().rules()) {
    if (is_infrastructure_cookie(r.cookie)) continue;
    if (rule_state(r.cookie) == RuleState::kUnmonitorable) continue;
    ++count;
  }
  return count;
}

void Monitor::seed_rule(const Rule& rule) {
  // No invalidation sweep: seeding rebuilds a table the (possibly shared)
  // probe cache was generated against — trusting it is the documented
  // harness contract, and matches pre-versioned-core behaviour.
  apply_table_delta(expected_.apply_add(rule), /*invalidate=*/false);
  rule_states_[rule.cookie] = RuleState::kConfirmed;
}

RuleState Monitor::rule_state(std::uint64_t cookie) const {
  const auto it = rule_states_.find(cookie);
  return it == rule_states_.end() ? RuleState::kUnmonitorable : it->second;
}

// ---------------------------------------------------------------------------
// Controller-side path
// ---------------------------------------------------------------------------

void Monitor::on_controller_message(const Message& msg) {
  expire_due_probes();  // a FlowMod at a deadline purges after the timeout
  if (msg.is<FlowMod>()) {
    handle_flow_mod(msg.as<FlowMod>(), msg.xid);
    return;
  }
  if (msg.is<openflow::BarrierRequest>()) {
    if (!hold_queue_.empty()) {
      hold_queue_.emplace_back(msg, msg.xid);
      return;
    }
    HeldBarrier hb;
    hb.xid = msg.xid;
    for (const auto& [cookie, job] : updates_) hb.waiting_on.insert(cookie);
    barriers_.push_back(std::move(hb));
    hooks_.to_switch(msg);
    return;
  }
  // Everything else passes through untouched.
  hooks_.to_switch(msg);
}

bool Monitor::overlaps_pending(const Match& match) const {
  for (const auto& [cookie, job] : updates_) {
    if (job.rule.match.overlaps(match)) return true;
  }
  return false;
}

void Monitor::handle_flow_mod(const FlowMod& fm, std::uint32_t xid) {
  // §4.2: queue updates that overlap any yet-unconfirmed update; once a
  // queue forms, everything stays FIFO behind it to preserve ordering.
  if (!hold_queue_.empty() || overlaps_pending(fm.match)) {
    hold_queue_.emplace_back(openflow::make_message(xid, fm), xid);
    ++stats_.updates_queued;
    return;
  }
  apply_and_track(fm, xid);
}

void Monitor::apply_and_track(const FlowMod& fm, std::uint32_t xid) {
  switch (fm.command) {
    case FlowModCommand::kAdd: {
      FlowMod to_install = fm;
      UpdateJob job;
      job.kind = UpdateJob::Kind::kAdd;
      // §4.3 drop-postponing: install a tag-and-forward version first.
      if (config_.drop_postponing && fm.actions.empty()) {
        const auto ports = injectable_ports();
        if (!ports.empty()) {
          to_install.actions = {
              openflow::Action::set_field(netbase::Field::VlanId, kDropTag),
              openflow::Action::output(ports.front())};
          job.drop_postponed = true;
          job.final_rule = fm.rule();
        }
      }
      hooks_.to_switch(openflow::make_message(xid, to_install));
      ++stats_.flowmods_forwarded;
      // The one place adds enter the system: version the table, then let the
      // delta drive precise invalidation + live-session sync.
      apply_table_delta(expected_.apply_add(to_install.rule()));
      job.rule = to_install.rule();
      start_update_job(std::move(job));
      break;
    }
    case FlowModCommand::kModify:
    case FlowModCommand::kModifyStrict: {
      // The one strict lookup of this write: the slot builds the probe and
      // then takes the new version.
      const auto slot = expected_.table().find_index(fm.match, fm.priority);
      if (!slot) {
        // OpenFlow 1.0: a modify with no matching rule behaves as an add.
        FlowMod as_add = fm;
        as_add.command = FlowModCommand::kAdd;
        apply_and_track(as_add, xid);
        return;
      }
      hooks_.to_switch(openflow::make_message(xid, fm));
      ++stats_.flowmods_forwarded;
      UpdateJob job;
      job.kind = UpdateJob::Kind::kModify;
      // Build the altered-table probe (§4.1) against the PRE-update state.
      const ModificationSpec spec = make_modification_spec(
          expected_.table(), expected_.table().rules()[*slot], fm.rule());
      // The altered table is ephemeral: a throwaway session answers it.
      const auto t0 = std::chrono::steady_clock::now();
      ProbeGenResult gen = generate_modification_probe(
          spec,
          plan_->collect_match_for(config_.switch_id,
                                   collect_downstream(spec.probed)),
          config_.miss_actions, injectable_ports());
      stats_.generation_time += std::chrono::steady_clock::now() - t0;
      ++stats_.probe_generations;
      ++stats_.scratch_regens;
      if (gen.ok()) {
        gen.probe->rule_cookie = fm.cookie;
        job.probe = std::move(gen.probe);
      }
      apply_table_delta(expected_.apply_modify_at(*slot, fm.rule()));
      job.rule = fm.rule();
      start_update_job(std::move(job));
      break;
    }
    case FlowModCommand::kDelete:
    case FlowModCommand::kDeleteStrict: {
      // Collect victims, with their slots, before forwarding (§4.1: a
      // multi-rule delete is confirmed per-rule).  The slots are in table
      // order; the strict delete's one lookup is the only one.
      const std::vector<Rule>& rules = expected_.table().rules();
      std::vector<std::size_t> slots;
      if (fm.command == FlowModCommand::kDeleteStrict) {
        if (const auto slot = expected_.table().find_index(fm.match, fm.priority)) {
          slots.push_back(*slot);
        }
      } else {
        for (std::size_t i = 0; i < rules.size(); ++i) {
          if (fm.match.subsumes(rules[i].match) &&
              !is_infrastructure_cookie(rules[i].cookie)) {
            slots.push_back(i);
          }
        }
      }
      // Generate deletion probes from the PRE-delete table.
      std::vector<UpdateJob> jobs;
      for (const std::size_t slot : slots) {
        UpdateJob job;
        job.kind = UpdateJob::Kind::kDelete;
        job.rule = rules[slot];
        const Probe* p = probe_for(job.rule);
        if (p != nullptr) job.probe = *p;
        jobs.push_back(std::move(job));
      }
      hooks_.to_switch(openflow::make_message(xid, fm));
      ++stats_.flowmods_forwarded;
      // With k victims already gone, the k-th sits k slots lower.
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        const Rule& victim = jobs[k].rule;
        const openflow::TableDelta delta = expected_.apply_delete_at(slots[k] - k);
        assert(delta.rule.priority == victim.priority &&
               delta.rule.match == victim.match);
        apply_table_delta(delta);
        rule_states_.erase(victim.cookie);
      }
      for (auto& job : jobs) start_update_job(std::move(job));
      break;
    }
  }
  steady_order_.clear();  // membership changed; rebuild lazily
}

void Monitor::start_update_job(UpdateJob job) {
  const std::uint64_t cookie = job.rule.cookie;
  job.epoch = expected_.epoch();
  job.started = runtime_->now();
  rule_states_[cookie] = RuleState::kPending;

  if (job.kind == UpdateJob::Kind::kAdd && !job.probe.has_value()) {
    const Probe* p = probe_for(job.rule);
    if (p != nullptr) job.probe = *p;
  }
  if (job.probe.has_value()) {
    if (egress_unobservable(*job.probe)) {
      job.probe.reset();
    }
  }
  if (job.probe.has_value()) {
    job.negative =
        (job.kind == UpdateJob::Kind::kDelete)
            ? job.probe->if_absent.is_drop()
            : job.probe->if_present.is_drop();
  }

  const bool has_probe = job.probe.has_value();
  updates_[cookie] = std::move(job);

  if (has_probe) {
    // First injection after the (simulated) probe-computation latency.
    updates_[cookie].inject_timer = runtime_->schedule(
        config_.generation_delay, [this, cookie] { inject_update_probe(cookie); });
  } else if (channel_up_) {
    // Unmonitorable update: best-effort blind confirmation after a settle
    // delay (documented limitation; see DESIGN.md).
    updates_[cookie].inject_timer = runtime_->schedule(
        config_.negative_confirm_timeout, [this, cookie] { confirm_update(cookie); });
  }
  // Give-up alarm.  Jobs born during an outage start with the blind-confirm
  // and give-up timers unarmed, exactly like pre-existing jobs paused by
  // on_channel_state(false); the reconnect path re-arms both — confirming
  // or failing an update whose FlowMod is still parked in a down backend's
  // queue would be a verdict about the outage, not the data plane.
  if (channel_up_) schedule_update_give_up(cookie);
}

void Monitor::schedule_update_give_up(std::uint64_t cookie) {
  updates_[cookie].give_up_timer =
      runtime_->schedule(config_.update_give_up, [this, cookie] {
        const auto it = updates_.find(cookie);
        if (it == updates_.end()) return;
        it->second.give_up_timer = 0;
        if (hooks_.on_update_failed) {
          hooks_.on_update_failed(cookie, runtime_->now());
        }
        runtime_->cancel(it->second.inject_timer);
        updates_.erase(it);
        purge_outstanding_for(cookie);
        rule_states_[cookie] = RuleState::kFailed;
        confirm_barriers_waiting_on(cookie);
        drain_hold_queue();
      });
}

void Monitor::inject_update_probe(std::uint64_t cookie) {
  expire_due_probes();  // tie rule: see timeouts_head_
  const auto it = updates_.find(cookie);
  if (it == updates_.end()) return;
  UpdateJob& job = it->second;
  assert(job.probe.has_value());

  // Negative confirmation: enough consecutive silent injections confirm.
  if (job.negative && job.silent_injections >= config_.negative_confirm_tries) {
    confirm_update(cookie);
    return;
  }
  const std::uint32_t nonce = next_nonce_++;
  if (inject_probe_packet(*job.probe, nullptr, job.epoch, nonce)) {
    // Only probes that actually left enter the outstanding set (mirrors
    // inject_steady_probe): a down injection path must register nothing —
    // no silence credit, no nonce accumulating across the outage.
    OutstandingProbe op;
    op.cookie = cookie;
    op.epoch = job.epoch;
    op.nonce = nonce;
    op.tries_left = 0;  // update probes re-inject on their own cadence
    op.first_injected = runtime_->now();
    insert_outstanding(nonce, op);
    ++job.silent_injections;  // reset on any observation
  }
  job.inject_timer = runtime_->schedule(
      config_.update_probe_interval, [this, cookie] { inject_update_probe(cookie); });
}

void Monitor::purge_outstanding_for(std::uint64_t cookie) {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (it->second.cookie == cookie) {
      auto victim = it++;
      retire_outstanding(victim);
    } else {
      ++it;
    }
  }
}

void Monitor::confirm_update(std::uint64_t cookie) {
  const auto it = updates_.find(cookie);
  if (it == updates_.end()) return;
  UpdateJob job = std::move(it->second);
  runtime_->cancel(job.inject_timer);
  runtime_->cancel(job.give_up_timer);
  updates_.erase(it);
  // Every nonce this update still has in flight is resolved with it —
  // update probes (negative ones especially) carry no timeout timer and
  // would otherwise accumulate forever.
  purge_outstanding_for(cookie);

  if (job.kind == UpdateJob::Kind::kDelete) {
    rule_states_.erase(cookie);
  } else {
    rule_states_[cookie] = RuleState::kConfirmed;
  }
  steady_order_.clear();  // the confirmed rule now joins the steady cycle
  ++stats_.updates_confirmed;
  const netbase::SimTime latency = runtime_->now() - job.started;
  ++stats_.confirm_latency_count;
  stats_.confirm_latency_sum_ns += latency;
  ++stats_.confirm_latency_hist[telemetry::confirm_latency_bucket(latency)];

  // §4.3 second phase: swap the tagged-forward rule for the real drop rule.
  // Probing is no longer necessary (the paper: the end-to-end behaviour of
  // production traffic does not change).
  if (job.drop_postponed) {
    FlowMod real_drop;
    real_drop.command = FlowModCommand::kModifyStrict;
    real_drop.match = job.final_rule.match;
    real_drop.priority = job.final_rule.priority;
    real_drop.cookie = job.final_rule.cookie;
    real_drop.actions = job.final_rule.actions;
    hooks_.to_switch(openflow::make_message(0, real_drop));
    ++stats_.flowmods_forwarded;
    const auto delta = expected_.apply_modify_strict(real_drop.rule());
    if (delta.has_value()) apply_table_delta(*delta);
  }

  if (hooks_.on_update_confirmed) {
    hooks_.on_update_confirmed(cookie, runtime_->now());
  }
  confirm_barriers_waiting_on(cookie);
  drain_hold_queue();
}

void Monitor::confirm_barriers_waiting_on(std::uint64_t cookie) {
  for (auto it = barriers_.begin(); it != barriers_.end();) {
    it->waiting_on.erase(cookie);
    if (it->waiting_on.empty() && it->reply_seen) {
      hooks_.to_controller(
          openflow::make_message(it->xid, openflow::BarrierReply{}));
      it = barriers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Monitor::drain_hold_queue() {
  while (!hold_queue_.empty()) {
    const auto [msg, xid] = hold_queue_.front();
    if (msg.is<FlowMod>()) {
      if (overlaps_pending(msg.as<FlowMod>().match)) return;  // still blocked
      hold_queue_.pop_front();
      apply_and_track(msg.as<FlowMod>(), xid);
    } else if (msg.is<openflow::BarrierRequest>()) {
      hold_queue_.pop_front();
      HeldBarrier hb;
      hb.xid = xid;
      for (const auto& [cookie, job] : updates_) hb.waiting_on.insert(cookie);
      barriers_.push_back(std::move(hb));
      hooks_.to_switch(msg);
    } else {
      hold_queue_.pop_front();
      hooks_.to_switch(msg);
    }
  }
}

// ---------------------------------------------------------------------------
// Switch-side path
// ---------------------------------------------------------------------------

void Monitor::on_switch_message(const Message& msg) {
  if (msg.is<openflow::BarrierReply>()) {
    for (auto it = barriers_.begin(); it != barriers_.end(); ++it) {
      if (it->xid == msg.xid) {
        it->reply_seen = true;
        if (it->waiting_on.empty()) {
          hooks_.to_controller(msg);
          barriers_.erase(it);
        }
        return;  // held until the pending updates confirm
      }
    }
  }
  hooks_.to_controller(msg);
}

// ---------------------------------------------------------------------------
// Probe plumbing
// ---------------------------------------------------------------------------

std::vector<std::uint16_t> Monitor::injectable_ports() const {
  std::vector<std::uint16_t> out;
  for (const std::uint16_t p : view_->ports(config_.switch_id)) {
    if (view_->peer(config_.switch_id, p).has_value()) out.push_back(p);
  }
  return out;
}

SwitchId Monitor::collect_downstream(const Rule& rule) const {
  // Strategy 2 needs the downstream switch the probe should be caught by:
  // the peer behind the rule's first observable output port (drop rules fall
  // back to any neighbor — their probes are negative anyway).
  for (const auto& [port, rewrite] : rule.outcome().emissions) {
    const auto peer = view_->peer(config_.switch_id, port);
    if (peer) return peer->sw;
  }
  for (const std::uint16_t p : view_->ports(config_.switch_id)) {
    const auto peer = view_->peer(config_.switch_id, p);
    if (peer) return peer->sw;
  }
  return config_.switch_id;
}

bool Monitor::egress_unobservable(const Probe& probe) const {
  auto observable = [&](const OutcomePrediction& pred) {
    for (const Observation& o : pred.observations) {
      if (o.output_port == openflow::kPortController) continue;
      if (!view_->peer(config_.switch_id, o.output_port).has_value()) {
        return false;
      }
    }
    return true;
  };
  return !observable(probe.if_present) || !observable(probe.if_absent);
}

ProbeGenResult Monitor::generate_live(
    const Rule& rule, const std::vector<std::uint16_t>& all_ports) {
  ProbeBatchSession& session = live_session_for(plan_->collect_match_for(
      config_.switch_id, collect_downstream(rule)));
  ProbeGenResult gen;
  // Prefer a single (rule-hashed) ingress port so injection load spreads
  // across upstream neighbors instead of hammering one of them; fall back
  // to the full port set when the constraint is unsatisfiable with that
  // port.
  if (!all_ports.empty()) {
    const std::uint64_t h =
        rule.cookie * 0x9E3779B97F4A7C15ull + config_.switch_id;
    const std::uint16_t preferred = all_ports[h % all_ports.size()];
    gen = session.generate(rule, std::span(&preferred, 1));
  }
  if (!gen.ok()) gen = session.generate(rule, all_ports);
  ++stats_.delta_regens;
  return gen;
}

const Probe* Monitor::probe_for(const Rule& rule) {
  ProbeCache::Entry* entry = probe_entry_for(rule);
  return entry == nullptr ? nullptr : &*entry->probe;
}

ProbeCache::Entry* Monitor::probe_entry_for(const Rule& rule) {
  auto& entry = cache_->entries[rule.cookie];
  if (entry.probe.has_value()) {
    ++stats_.probe_cache_hits;
    return &entry;
  }
  if (entry.failure != ProbeFailure::kNone) {
    ++stats_.probe_cache_hits;  // resolved (unmonitorable) counts as served
    return nullptr;
  }
  ++stats_.probe_cache_misses;

  // Lazy misses ride the warm delta-maintained session.
  const auto t0 = std::chrono::steady_clock::now();
  ProbeGenResult gen = generate_live(rule, injectable_ports());
  stats_.generation_time += std::chrono::steady_clock::now() - t0;
  if (commit_generation_result(rule, std::move(gen)) == nullptr) return nullptr;
  return &cache_->entries[rule.cookie];
}

const Probe* Monitor::commit_generation_result(const Rule& rule,
                                               ProbeGenResult gen) {
  auto& entry = cache_->entries[rule.cookie];
  entry.epoch = expected_.epoch();
  ++stats_.probe_generations;
  if (!gen.ok()) {
    entry.failure = gen.failure;
    rule_states_[rule.cookie] = RuleState::kUnmonitorable;
    return nullptr;
  }
  if (egress_unobservable(*gen.probe)) {
    entry.failure = ProbeFailure::kEgress;
    rule_states_[rule.cookie] = RuleState::kUnmonitorable;
    return nullptr;
  }
  entry.probe = std::move(gen.probe);
  return &*entry.probe;
}

void Monitor::batch_generate_into_cache(
    const std::vector<std::uint64_t>& cookies) {
  // Every warm-up and refill query rides the collect group's live
  // delta-maintained session, with the same two-step port preference as a
  // lazy miss, so the two paths produce identical cache contents.
  const auto all_ports = injectable_ports();
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::uint64_t cookie : cookies) {
    const Rule* rule = expected_.table().find_by_cookie(cookie);
    if (rule == nullptr || is_infrastructure_cookie(cookie)) continue;
    const auto it = cache_->entries.find(cookie);
    if (it != cache_->entries.end() &&
        (it->second.probe.has_value() ||
         it->second.failure != ProbeFailure::kNone)) {
      continue;  // already resolved (e.g. by a lazy probe_for call)
    }
    commit_generation_result(*rule, generate_live(*rule, all_ports));
  }
  stats_.generation_time += std::chrono::steady_clock::now() - t0;
}

void Monitor::refill_probe_cache() {
  std::vector<std::uint64_t> cookies;
  for (const Rule& r : expected_.table().rules()) {
    if (!is_infrastructure_cookie(r.cookie)) cookies.push_back(r.cookie);
  }
  batch_generate_into_cache(cookies);
}

void Monitor::schedule_batch_refill() {
  if (batch_refill_scheduled_) return;
  batch_refill_scheduled_ = true;
  // Coalesce: table-change bursts (e.g. a multi-rule delete) trigger one
  // refill pass, charged at the same latency as a fresh generation.
  refill_timer_ = runtime_->schedule(config_.generation_delay, [this] {
    refill_timer_ = 0;
    batch_refill_scheduled_ = false;
    std::vector<std::uint64_t> cookies(dirty_probe_cookies_.begin(),
                                       dirty_probe_cookies_.end());
    dirty_probe_cookies_.clear();
    batch_generate_into_cache(cookies);
  });
}

openflow::Epoch Monitor::rule_floor(std::uint64_t cookie) const {
  const auto it = rule_floor_.find(cookie);
  return it == rule_floor_.end() ? 0 : it->second;
}

bool Monitor::delta_survives(const ProbeCache::Entry& entry,
                             const openflow::TableDelta& delta) {
  using Kind = openflow::TableDelta::Kind;
  if (entry.probe.has_value()) {
    // A probe is ONE concrete packet: a rule whose match cannot cover it
    // can neither shadow its Hit nor enter either outcome prediction
    // (if_present is the probed rule's own outcome; if_absent the first
    // OTHER rule matching the packet).
    return !delta.rule.match.matches(entry.probe->packet);
  }
  switch (entry.failure) {
    case ProbeFailure::kUnsupported:
      // Depends only on the rule's OWN actions (FLOOD/ALL, tag rewrite);
      // a delta to another rule cannot change it (self always regenerates).
      return true;
    case ProbeFailure::kShadowed:
      // Shadowing is a property of overlapping rules' matches at priority
      // >= the shadowed rule (equal priority counts: the conservative
      // same-priority rule in run_query).  Adds only add cover; action
      // modifies and same-match replaces keep every match set; a DELETE can
      // expose the rule.  The delta's overlap split is relative to the
      // DELETED rule, which cannot tell "strictly higher" from "equal
      // priority" for cookies in overlapping_higher — and an equal-priority
      // deleted rule may itself have been the shadower — so any delete that
      // overlaps a shadowed rule regenerates it.
      return delta.kind != Kind::kDelete;
    default:
      // kIndistinguishable/kUnsat/kEgress/...: any neighboring change can
      // flip these — regenerate.
      return false;
  }
}

ProbeBatchSession& Monitor::live_session_for(const Match& collect) {
  for (auto& ls : live_sessions_) {
    if (ls.collect == collect) return *ls.session;
  }
  live_sessions_.push_back(
      {collect, std::make_unique<ProbeBatchSession>(
                    expected_.table(), collect, config_.miss_actions)});
  return *live_sessions_.back().session;
}

void Monitor::apply_table_delta(const openflow::TableDelta& delta,
                                bool invalidate) {
  using Kind = openflow::TableDelta::Kind;
  ++stats_.deltas_applied;
  // Every table mutation funnels through here, and the steady cycle caches
  // raw Rule* into the table's rule vector (SteadyEntry) — clear it
  // unconditionally BEFORE anything else so no later step can walk stale
  // pointers.  The next tick rebuilds against the post-delta table.
  steady_order_.clear();
  // Live sessions track every delta in application order — a cheap
  // positional cache patch; the incremental solver survives untouched.
  for (auto& ls : live_sessions_) {
    ls.session->apply_delta(expected_.table(), delta);
  }
  if (!invalidate) {
    if (hooks_.on_delta) hooks_.on_delta(delta);
    return;
  }
  // Precise invalidation.  The delta names every rule the change CAN affect
  // (its own slot, the slot it replaced, the overlap sets) — already far
  // tighter than the old whole-table match scan.  Within that set, a cached
  // probe survives unless the changed rule's match covers the probe PACKET
  // itself: a probe is one concrete packet, and a rule that cannot match it
  // can neither shadow its Hit nor enter either of its outcome predictions
  // (if_present is the probed rule's own outcome; if_absent is the first
  /// OTHER rule matching the packet).  The probe stays valid, its verdict
  // semantics stay exact, and its in-flight echoes stay meaningful — so
  // churn cost scales with what the change actually touches.
  for (const std::uint64_t cookie : delta.affected_cookies()) {
    const bool gone =
        (delta.kind == Kind::kDelete && cookie == delta.rule.cookie) ||
        (delta.replaced.has_value() && cookie == delta.replaced->cookie &&
         cookie != delta.rule.cookie);
    if (!gone && cookie != delta.rule.cookie) {
      const auto it = cache_->entries.find(cookie);
      if (it != cache_->entries.end() &&
          delta_survives(it->second, delta)) {
        continue;  // the change provably cannot touch this entry
      }
    }
    // Observations from probes injected before this epoch are about a table
    // that no longer exists: stale, not failures.
    rule_floor_[cookie] = delta.epoch;
    if (cache_->entries.erase(cookie) > 0) {
      ++stats_.probe_invalidations;
      // A deleted rule (or the displaced version of a replace) needs no
      // refill; everything else steady-state probing will want again soon.
      if (!gone && steady_running_) {
        dirty_probe_cookies_.insert(cookie);
      }
    }
    // In-flight STEADY probes of affected rules become stale; their nonces
    // are dropped here with their timers.  A pending update's nonces are
    // exempt, like its echoes (§4.1): purging them would eat the very
    // observations that reset silence-based negative confirmation, letting
    // an overlapping-delta stream falsely confirm a drop rule.  Update
    // nonces are resolved by confirm_update/give-up, never left behind.
    if (updates_.find(cookie) == updates_.end()) {
      purge_outstanding_for(cookie);
      // An in-progress suspicion about a rule the delta touched is evidence
      // about a table that no longer exists: drop it without a verdict.
      drop_suspect(cookie);
    }
  }
  if (delta.kind == Kind::kDelete) {
    rule_floor_.erase(delta.rule.cookie);  // late echoes miss outstanding_ anyway
    dirty_probe_cookies_.erase(delta.rule.cookie);
  }
  // Endurance: kDelete only erases the deleted rule's own floor, so
  // modify-heavy streams that rotate cookies (each modify retiring the
  // replaced cookie) grow the floor map without bound.  Sweep once the map
  // outgrows twice its live size (amortized O(1) per delta).
  if (next_floor_sweep_ == 0) {
    next_floor_sweep_ = std::max<std::size_t>(config_.floor_sweep_min, 1);
  }
  if (rule_floor_.size() >= next_floor_sweep_) sweep_rule_floors();
  if (!dirty_probe_cookies_.empty()) schedule_batch_refill();
  if (hooks_.on_delta) hooks_.on_delta(delta);
}

void Monitor::sweep_rule_floors() {
  // Watermark: the smallest injection epoch still in flight.  Floors only
  // ever classify observations whose probe epoch is BELOW them, future
  // injections stamp the current epoch (>= any floor ever set), so a floor
  // at or below the watermark can never fire again — dead weight.
  openflow::Epoch watermark = expected_.epoch();
  for (const auto& [nonce, op] : outstanding_) {
    watermark = std::min(watermark, op.epoch);
  }
  for (auto it = rule_floor_.begin(); it != rule_floor_.end();) {
    if (it->second <= watermark) {
      it = rule_floor_.erase(it);
    } else {
      ++it;
    }
  }
  ++stats_.floor_sweeps;
  next_floor_sweep_ =
      std::max<std::size_t>(config_.floor_sweep_min, 2 * rule_floor_.size());
  // Spare-pool watermark: long bursts can pin kMaxOutstandingSpares
  // recycled nodes forever; trim to the high-watermark of concurrent
  // probes actually seen since the last sweep.
  const std::size_t keep = std::max<std::size_t>(outstanding_peak_, 16);
  if (outstanding_spares_.size() > keep) outstanding_spares_.resize(keep);
  outstanding_peak_ = outstanding_.size();
}

bool Monitor::inject_probe_packet(const Probe& probe, ProbeCache::Entry* entry,
                                  openflow::Epoch epoch, std::uint32_t nonce) {
  // The wire carries the low 32 epoch bits; the full epoch rides in the
  // outstanding entry, where the staleness floors compare it.
  const auto generation = static_cast<std::uint32_t>(epoch);

  if (entry != nullptr && entry->wire.valid()) {
    // Steady fast path: re-stamp the per-injection fields of the cached
    // frame in place — no metadata encode, no expected-outcome hash (it is
    // constant per probe and already embedded), zero allocations.
    netbase::restamp_probe_wire(entry->wire, generation, nonce);
    const bool ok = hooks_.inject(probe.in_port(), entry->wire.bytes);
    if (ok) ++stats_.probes_injected;
    return ok;
  }

  ProbeMetadata meta;
  meta.switch_id = config_.switch_id;
  meta.rule_cookie = probe.rule_cookie;
  meta.generation = generation;
  meta.expected = hash_prediction(probe.if_present);
  meta.nonce = nonce;

  bool ok = false;
  if (entry != nullptr) {
    // First injection of this rule: craft once into the cache entry; every
    // later injection re-stamps it above.
    entry->wire = netbase::craft_probe_wire(probe.packet, meta);
    ok = hooks_.inject(probe.in_port(), entry->wire.bytes);
  } else {
    // Update-confirmation probes: their altered-table packets live in the
    // UpdateJob, not the cache, so craft per call — but into the reusable
    // scratch buffer, with the metadata on the stack.
    std::array<std::uint8_t, ProbeMetadata::kWireSize> payload;
    netbase::encode_probe_metadata(meta, payload);
    netbase::craft_packet_into(probe.packet, payload, wire_scratch_);
    ok = hooks_.inject(probe.in_port(), wire_scratch_);
  }
  if (ok) ++stats_.probes_injected;  // count real injections only
  return ok;
}

Monitor::OutstandingProbe& Monitor::insert_outstanding(
    std::uint32_t nonce, const OutstandingProbe& op) {
  if (outstanding_.size() >= outstanding_peak_) {
    outstanding_peak_ = outstanding_.size() + 1;  // spare-pool watermark
  }
  OutstandingProbe* slot = nullptr;
  if (!outstanding_spares_.empty()) {
    auto node = std::move(outstanding_spares_.back());
    outstanding_spares_.pop_back();
    node.key() = nonce;
    auto res = outstanding_.insert(std::move(node));
    if (!res.inserted) outstanding_spares_.push_back(std::move(res.node));
    slot = &res.position->second;
  } else {
    slot = &outstanding_[nonce];
  }
  // A nonce that wrapped onto a still-live entry (a long-silent update
  // probe) is overwritten: the old record must not answer for the new
  // probe's timeout.
  unlink_timeout(*slot);
  *slot = op;
  slot->queued = false;
  return *slot;
}

void Monitor::retire_outstanding(OutstandingMap::iterator it) {
  unlink_timeout(it->second);
  auto node = outstanding_.extract(it);
  if (outstanding_spares_.size() < kMaxOutstandingSpares) {
    outstanding_spares_.push_back(std::move(node));
  }
}

std::optional<Observation> Monitor::translate_observation(
    SwitchId catcher, std::uint16_t catcher_in_port,
    const netbase::PacketView& packet) const {
  Observation o;
  o.header = strip_in_port(netbase::pack_header(packet.header));
  if (catcher == config_.switch_id) {
    o.output_port = openflow::kPortController;
    return o;
  }
  const auto peer = view_->peer(catcher, catcher_in_port);
  if (!peer || peer->sw != config_.switch_id) return std::nullopt;
  o.output_port = peer->port;
  return o;
}

void Monitor::on_probe_caught(SwitchId catcher, std::uint16_t catcher_in_port,
                              const netbase::PacketView& packet,
                              const ProbeMetadata& meta) {
  // An echo that arrives exactly at its probe's deadline is too late: the
  // timeout runs first (tie rule, see timeouts_head_).
  expire_due_probes();
  ++stats_.probes_caught;
  const auto out_it = outstanding_.find(meta.nonce);
  if (out_it == outstanding_.end() ||
      static_cast<std::uint32_t>(out_it->second.epoch) != meta.generation) {
    ++stats_.stale_probes;
    return;
  }
  const std::uint64_t cookie = out_it->second.cookie;
  // Epoch-keyed staleness for STEADY probes: one injected against an older
  // table version (pre-delta, or pre-outage) proves nothing about the rule
  // NOW — classify stale, never as a failure.  (Invalidation purges such
  // nonces eagerly; this guards the race where the echo is already in
  // flight toward us.)  Update-confirmation probes are exempt: they
  // re-inject until the data plane applies THIS update and may legitimately
  // confirm across overlapping deltas and channel outages (§4.1).
  if (updates_.find(cookie) == updates_.end() &&
      (out_it->second.epoch < epoch_floor_ ||
       out_it->second.epoch < rule_floor(cookie))) {
    retire_outstanding(out_it);
    ++stats_.stale_probes;
    ++stats_.stale_epoch_drops;
    return;
  }
  const auto obs = translate_observation(catcher, catcher_in_port, packet);
  if (!obs) {
    ++stats_.stale_probes;
    return;
  }

  // Locate the probe this observation answers.
  const Probe* probe = nullptr;
  const auto job_it = updates_.find(cookie);
  if (job_it != updates_.end() && job_it->second.probe.has_value()) {
    probe = &*job_it->second.probe;
  } else {
    const auto cache_it = cache_->entries.find(cookie);
    if (cache_it != cache_->entries.end() && cache_it->second.probe) {
      probe = &*cache_it->second.probe;
    }
  }
  if (probe == nullptr) {
    ++stats_.stale_probes;
    return;
  }

  const Verdict verdict = classify_observation(*probe, *obs);

  if (job_it != updates_.end()) {
    UpdateJob& job = job_it->second;
    job.silent_injections = 0;
    const bool confirms =
        (job.kind == UpdateJob::Kind::kDelete) ? verdict == Verdict::kAbsent
                                               : verdict == Verdict::kPresent;
    // Caught is resolved either way: the nonce leaves the outstanding set
    // (confirm_update then purges any siblings still in flight).
    retire_outstanding(out_it);
    if (confirms) confirm_update(cookie);
    // Transient inconsistency (§4.1): the opposite verdict is expected while
    // the switch lags; keep probing without alarming.
    return;
  }

  // Steady-state probe.
  retire_outstanding(out_it);
  if (verdict == Verdict::kPresent) {
    if (const auto s = suspects_.find(cookie); s != suspects_.end()) {
      // One present echo acquits: the timeouts were the path flapping (or
      // eating probes), not the rule misbehaving.
      runtime_->cancel(s->second.timer);
      suspects_.erase(s);
      ++stats_.flap_suppressions;
      rule_states_[cookie] = RuleState::kConfirmed;
      note_verdict(cookie, RuleState::kConfirmed);
    }
    if (failed_.erase(cookie) > 0) {
      rule_states_[cookie] = RuleState::kConfirmed;
      note_verdict(cookie, RuleState::kConfirmed);
    }
  } else if (verdict == Verdict::kAbsent) {
    // An absent echo is direct evidence — but under churn and flaps a
    // single observation still goes through K-of-N confirmation.
    if (suspects_.contains(cookie)) {
      suspect_strike(cookie);
    } else if (config_.confirm_probes > 0) {
      raise_suspect(cookie);
    } else {
      mark_rule_failed(cookie);
    }
  }
  // kInconclusive: ignore.
}

// ---------------------------------------------------------------------------
// Steady state
// ---------------------------------------------------------------------------

void Monitor::schedule_steady_tick() {
  const auto interval =
      static_cast<SimTime>(1e9 / config_.steady_probe_rate);
  steady_timer_ = runtime_->schedule(interval, [this] {
    steady_timer_ = 0;
    if (!steady_running_) return;
    steady_tick();
    schedule_steady_tick();
  });
}

Monitor::SteadyEntry* Monitor::next_steady_entry() {
  if (steady_order_.empty()) {
    // Rebuild resolves every pointer the per-probe step would otherwise
    // re-hash: Rule* into the table, RuleState* at the states-map node and
    // the last-probed stamp at its (node-stable) map entry.  Any table
    // delta clears the order (apply_table_delta), so the Rule* never
    // outlives the rule vector it points into.
    for (const Rule& r : expected_.table().rules()) {
      if (is_infrastructure_cookie(r.cookie)) continue;
      const auto st = rule_states_.find(r.cookie);
      if (st == rule_states_.end() ||  // reads as kUnmonitorable
          st->second == RuleState::kPending ||
          st->second == RuleState::kUnmonitorable ||
          st->second == RuleState::kSuspect) {
        continue;  // suspects are probed by their own confirmation machine
      }
      const auto lp = last_probed_.try_emplace(r.cookie, 0).first;
      steady_order_.push_back(
          SteadyEntry{r.cookie, &r, &st->second, nullptr, &lp->second, 0});
    }
    wheel_built_ = false;  // bucket indices point into the old order
    // Cookie-rotating churn leaves last-probed stamps behind for cookies
    // that left the table; prune when the map doubled past the live order
    // (amortized O(1) per delta, keeps the endurance RSS flat).  Erasure
    // never touches the entries the fresh order points at.
    if (last_probed_.size() > steady_order_.size() * 2 + 16) {
      for (auto it = last_probed_.begin(); it != last_probed_.end();) {
        const Rule* live = expected_.table().find_by_cookie(it->first);
        if (live == nullptr || is_infrastructure_cookie(it->first)) {
          it = last_probed_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (steady_order_.empty()) return nullptr;
  }
  if (!wheel_built_) rebuild_wheel();
  // Drain the stalest non-empty bucket; when every bucket is exhausted the
  // cycle is complete and the wheel re-bins by current age.  Two passes
  // bound the scan: pass 1 finishes the current cycle, pass 2 scans one
  // whole fresh cycle — if neither finds a probeable slot, nothing is.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t b = 0; b < kStalenessBuckets; ++b) {
      std::vector<std::uint32_t>& bucket = wheel_[b];
      std::size_t& pos = wheel_pos_[b];
      while (pos < bucket.size()) {
        SteadyEntry& slot = steady_order_[bucket[pos++]];
        // Skip slots that became pending/suspect/unmonitorable since the
        // rebuild — one pointer read per slot; state transitions rewrite
        // the node in place.
        const RuleState st = *slot.state;
        if (st == RuleState::kPending || st == RuleState::kUnmonitorable ||
            st == RuleState::kSuspect) {
          continue;
        }
        return &slot;
      }
    }
    rebuild_wheel();
  }
  return nullptr;
}

void Monitor::rebuild_wheel() {
  // Any bucket may hold the whole order (re-binning shifts occupancy every
  // rebuild), so reserve up front once per size change — rebuilds then never
  // touch the heap, which the fig14 steady-cycle alloc gate counts on.
  for (auto& bucket : wheel_) {
    bucket.clear();  // capacity retained
    if (bucket.capacity() < steady_order_.size()) {
      bucket.reserve(steady_order_.size());
    }
  }
  wheel_pos_.fill(0);
  const SimTime now = runtime_->now();
  // The quantum adapts to the age SPREAD, not a fixed timeout multiple: a
  // shard revisited every N rounds by the fleet has every rule older than
  // any fixed threshold, which would collapse the wheel into one bucket in
  // table order — and a churn-triggered order rebuild would then restart
  // the scan at the table head, starving the tail forever.  Binning by
  // fractions of the current maximum age keeps "stalest first" meaningful
  // at any probing cadence, and the stamps survive order rebuilds, so the
  // cycle position is effectively carried across churn.
  SimTime max_age = 0;
  for (const SteadyEntry& e : steady_order_) {
    const SimTime last = *e.last_probed;
    if (last == 0) continue;  // never probed: ranked ahead of every age
    max_age = std::max(max_age, now - std::min(now, last));
  }
  const auto quantum =
      std::max<SimTime>(std::max<SimTime>(1, config_.probe_timeout),
                        max_age / kStalenessBuckets);
  // Never-probed rules fill bucket 0 FIRST: under churn the order (and so
  // the wheel) rebuilds every round, and each rebuild promotes a fresh
  // batch of merely-aged low-index rules into bucket 0 — if those preceded
  // the never-probed tail in the pick order, a burst no larger than the
  // promotion rate would cycle the table head forever and the tail would
  // never see its first probe (observed: a frozen tail exactly as old as
  // the run).
  for (std::uint32_t i = 0; i < steady_order_.size(); ++i) {
    if (*steady_order_[i].last_probed == 0) wheel_[0].push_back(i);
  }
  for (std::uint32_t i = 0; i < steady_order_.size(); ++i) {
    const SimTime last = *steady_order_[i].last_probed;
    if (last == 0) continue;
    const SimTime age = now - std::min(now, last);
    // Stalest first: long-starved rules land in bucket 0, freshly probed
    // ones in the last bucket.  Within a bucket the pick order follows
    // steady_order_ (table order) — fully deterministic.
    std::size_t b;
    if (age >= 3 * quantum) {
      b = 0;
    } else if (age >= 2 * quantum) {
      b = 1;
    } else if (age >= quantum) {
      b = 2;
    } else {
      b = 3;
    }
    wheel_[b].push_back(i);
  }
  wheel_built_ = true;
}

void Monitor::steady_tick() {
  expire_due_probes();  // tie rule: see timeouts_head_
  if (!channel_up_) return;  // started while down: skip until reconnect
  SteadyEntry* slot = next_steady_entry();
  if (slot != nullptr) inject_steady_probe(*slot);
}

bool Monitor::inject_steady_probe(SteadyEntry& slot) {
  const std::uint64_t cookie = slot.cookie;
  ProbeCache::Entry* entry = slot.entry;
  if (entry != nullptr && entry->probe.has_value()) {
    // Slot-cached fast path: the two remaining hash lookups of the steady
    // cycle (cache find + states find at probe_entry_for's hit counter) are
    // gone.  Keep the hit accounting identical to the map path.
    ++stats_.probe_cache_hits;
  } else {
    entry = probe_entry_for(*slot.rule);
    if (entry == nullptr) return false;  // became unmonitorable
    slot.entry = entry;  // node pointer: stable until the order is cleared
  }

  const openflow::Epoch epoch = expected_.epoch();
  const std::uint32_t nonce = next_nonce_++;
  if (!inject_probe_packet(*entry->probe, entry, epoch, nonce)) {
    // No live injection path (e.g. the delivering backend is reconnecting):
    // register nothing.  A timeout for a probe that never left would turn
    // the outage into a rule verdict — and for negative probes the silence
    // would even read as the GOOD outcome.
    return false;
  }
  OutstandingProbe op;
  op.cookie = cookie;
  op.epoch = epoch;
  op.nonce = nonce;
  op.tries_left = config_.probe_retries - 1;
  op.first_injected = runtime_->now();
  // Staleness stamp for the priority wheel (one pointer write per probe).
  if (slot.last_probed != nullptr) *slot.last_probed = op.first_injected;
  insert_timed_probe(op);
  return true;
}

void Monitor::insert_timed_probe(const OutstandingProbe& op) {
  OutstandingProbe& rec = insert_outstanding(op.nonce, op);
  rec.deadline = runtime_->now() +
                 config_.probe_timeout / std::max(1, config_.probe_retries);
  rec.queued = true;
  rec.prev = timeouts_tail_;
  rec.next = nullptr;
  if (timeouts_tail_ != nullptr) {
    timeouts_tail_->next = &rec;
  } else {
    timeouts_head_ = &rec;
  }
  timeouts_tail_ = &rec;
  if (!expiring_) arm_timeout_timer();
}

void Monitor::unlink_timeout(OutstandingProbe& op) {
  if (!op.queued) return;
  op.queued = false;
  if (op.prev != nullptr) {
    op.prev->next = op.next;
  } else {
    timeouts_head_ = op.next;
  }
  if (op.next != nullptr) {
    op.next->prev = op.prev;
  } else {
    timeouts_tail_ = op.prev;
  }
  op.prev = op.next = nullptr;
}

void Monitor::arm_timeout_timer() {
  if (timeout_timer_ != 0 || timeouts_head_ == nullptr) return;
  const SimTime now = runtime_->now();
  const SimTime at = timeouts_head_->deadline;
  timeout_timer_ = runtime_->schedule(at > now ? at - now : 0, [this] {
    timeout_timer_ = 0;
    expire_due_probes();
  });
}

void Monitor::expire_due_probes() {
  if (expiring_) return;  // re-entered from a verdict hook
  expiring_ = true;
  const SimTime now = runtime_->now();
  while (timeouts_head_ != nullptr && timeouts_head_->deadline <= now) {
    // Retires (and unlinks) the head; a retry it injects queues at the tail
    // with a later deadline (possibly in the very node just recycled).
    on_steady_timeout(timeouts_head_->nonce);
  }
  expiring_ = false;
  arm_timeout_timer();
}

void Monitor::clear_outstanding() {
  runtime_->cancel(timeout_timer_);
  timeout_timer_ = 0;
  timeouts_head_ = timeouts_tail_ = nullptr;
  outstanding_.clear();
}

void Monitor::on_steady_timeout(std::uint32_t nonce) {
  const auto it = outstanding_.find(nonce);
  if (it == outstanding_.end()) return;
  OutstandingProbe op = it->second;
  retire_outstanding(it);

  // Stale by epoch: the table (or the channel) changed under this probe; its
  // silence says nothing about the rule as it stands now.
  if (op.epoch < epoch_floor_ || op.epoch < rule_floor(op.cookie)) {
    ++stats_.stale_epoch_drops;
    return;
  }

  const auto cache_it = cache_->entries.find(op.cookie);
  ProbeCache::Entry* entry =
      (cache_it != cache_->entries.end() && cache_it->second.probe)
          ? &cache_it->second
          : nullptr;
  if (entry == nullptr) {
    // Entry vanished under an in-flight confirmation probe: the evidence is
    // gone with it — drop the suspicion rather than stall it timer-less.
    drop_suspect(op.cookie);
    return;
  }
  const Probe* probe = &*entry->probe;

  // Negative probes (present outcome = drop): silence is the GOOD outcome.
  if (probe->if_present.is_drop()) {
    if (const auto s = suspects_.find(op.cookie); s != suspects_.end()) {
      runtime_->cancel(s->second.timer);
      suspects_.erase(s);
      ++stats_.flap_suppressions;
      rule_states_[op.cookie] = RuleState::kConfirmed;
      note_verdict(op.cookie, RuleState::kConfirmed);
    }
    if (failed_.erase(op.cookie) > 0) {
      rule_states_[op.cookie] = RuleState::kConfirmed;
      note_verdict(op.cookie, RuleState::kConfirmed);
    }
    return;
  }

  // A confirmation probe of a suspect rule: its silence is one strike.
  if (suspects_.contains(op.cookie)) {
    suspect_strike(op.cookie);
    return;
  }

  if (op.tries_left > 0) {
    // Re-send the probe (paper: up to 3 times within the 150 ms window).
    const std::uint32_t nonce2 = next_nonce_++;
    if (!inject_probe_packet(*probe, entry, op.epoch, nonce2)) {
      return;  // injection path went down mid-retry: no verdict this cycle
    }
    ++stats_.probe_retries;
    OutstandingProbe op2 = op;
    op2.nonce = nonce2;
    op2.tries_left = op.tries_left - 1;
    insert_timed_probe(op2);
    return;
  }
  if (config_.confirm_probes > 0) {
    raise_suspect(op.cookie);
    return;
  }
  mark_rule_failed(op.cookie);
}

// ---------------------------------------------------------------------------
// K-of-N suspect confirmation (Config::confirm_probes)
// ---------------------------------------------------------------------------

void Monitor::raise_suspect(std::uint64_t cookie) {
  if (failed_.contains(cookie)) return;  // verdict already published
  const auto [it, fresh] = suspects_.try_emplace(cookie);
  if (!fresh) return;  // already under confirmation
  // Sibling nonces of the same loss episode must not double as strikes:
  // from here on only the serial confirmation probes speak for this rule.
  purge_outstanding_for(cookie);
  ++stats_.suspects_raised;
  rule_states_[cookie] = RuleState::kSuspect;  // steady cycle skips it
  note_verdict(cookie, RuleState::kSuspect);
  SuspectEntry& s = it->second;
  s.probes_left = config_.confirm_probes;
  s.strikes = 0;
  s.backoff = config_.confirm_backoff;
  s.since = runtime_->now();
  schedule_suspect_probe(cookie);
}

void Monitor::schedule_suspect_probe(std::uint64_t cookie) {
  const auto it = suspects_.find(cookie);
  if (it == suspects_.end()) return;
  SuspectEntry& s = it->second;
  s.timer = runtime_->schedule(s.backoff, [this, cookie] {
    const auto it2 = suspects_.find(cookie);
    if (it2 == suspects_.end()) return;
    it2->second.timer = 0;
    inject_suspect_probe(cookie);
  });
  s.backoff = static_cast<SimTime>(static_cast<double>(s.backoff) *
                                   config_.confirm_backoff_factor);
}

void Monitor::inject_suspect_probe(std::uint64_t cookie) {
  expire_due_probes();  // tie rule: see timeouts_head_
  const auto it = suspects_.find(cookie);
  if (it == suspects_.end()) return;
  const Rule* rule = expected_.table().find_by_cookie(cookie);
  if (rule == nullptr) {  // deleted while suspect: nothing left to judge
    drop_suspect(cookie);
    return;
  }
  SuspectEntry& s = it->second;
  --s.probes_left;
  ProbeCache::Entry* entry = probe_entry_for(*rule);
  if (entry == nullptr) {  // became unmonitorable: no probe, no verdict
    drop_suspect(cookie);
    return;
  }
  const openflow::Epoch epoch = expected_.epoch();
  const std::uint32_t nonce = next_nonce_++;
  if (!inject_probe_packet(*entry->probe, entry, epoch, nonce)) {
    // Injection path down mid-confirmation: silence would be about the
    // channel, not the rule.  Retry after the (growing) backoff; a real
    // outage clears the whole suspect set via on_channel_state.
    schedule_suspect_probe(cookie);
    return;
  }
  OutstandingProbe op;
  op.cookie = cookie;
  op.epoch = epoch;
  op.nonce = nonce;
  op.tries_left = 0;  // confirmation probes carry no inner retries
  op.first_injected = runtime_->now();
  insert_timed_probe(op);
}

void Monitor::suspect_strike(std::uint64_t cookie) {
  const auto it = suspects_.find(cookie);
  if (it == suspects_.end()) return;
  SuspectEntry& s = it->second;
  ++s.strikes;
  if (s.strikes >= config_.confirm_failures) {
    runtime_->cancel(s.timer);
    suspects_.erase(it);
    ++stats_.suspects_confirmed;
    mark_rule_failed(cookie);
    return;
  }
  if (s.probes_left <= 0) {
    // Out of confirmation probes without K strikes: the evidence did not
    // corroborate — clear with the benefit of the doubt.
    runtime_->cancel(s.timer);
    suspects_.erase(it);
    ++stats_.flap_suppressions;
    rule_states_[cookie] = RuleState::kConfirmed;
    note_verdict(cookie, RuleState::kConfirmed);
    return;
  }
  schedule_suspect_probe(cookie);
}

void Monitor::drop_suspect(std::uint64_t cookie) {
  const auto it = suspects_.find(cookie);
  if (it == suspects_.end()) return;
  runtime_->cancel(it->second.timer);
  suspects_.erase(it);
  const auto st = rule_states_.find(cookie);
  if (st != rule_states_.end() && st->second == RuleState::kSuspect) {
    st->second = RuleState::kConfirmed;  // unknown-not-failed; cycle resumes
  }
}

void Monitor::note_verdict(std::uint64_t cookie, RuleState state) {
  if (hooks_.on_verdict) hooks_.on_verdict(cookie, state, expected_.epoch());
}

void Monitor::mark_rule_failed(std::uint64_t cookie) {
  if (!failed_.insert(cookie).second) return;  // already failed
  rule_states_[cookie] = RuleState::kFailed;
  note_verdict(cookie, RuleState::kFailed);
  if (failed_.size() >= config_.alarm_threshold && hooks_.on_alarm) {
    ++stats_.alarms;
    RuleAlarm alarm;
    alarm.cookie = cookie;
    alarm.when = runtime_->now();
    alarm.failed_rule_count = failed_.size();
    hooks_.on_alarm(alarm);
  }
}

// ---------------------------------------------------------------------------
// Crash-safe warm restart (checkpoint.hpp; docs/DESIGN.md §15)
// ---------------------------------------------------------------------------

void Monitor::encode_checkpoint(std::vector<std::uint8_t>& out,
                                std::uint64_t budget) const {
  CheckpointWriter w(out, config_.switch_id, runtime_->now(),
                     expected_.epoch(), epoch_floor_, budget);
  w.begin_verdicts();
  for (const auto& [cookie, state] : rule_states_) {
    // Infrastructure rules are reinstalled (and re-seeded kConfirmed) by
    // install_infrastructure on restore; snapshotting them would only bloat
    // every round's frame.
    if (is_infrastructure_cookie(cookie)) continue;
    w.add_verdict(cookie, state);
  }
  w.begin_floors();
  for (const auto& [cookie, floor] : rule_floor_) w.add_floor(cookie, floor);
  w.begin_suspects();
  for (const auto& [cookie, s] : suspects_) {
    w.add_suspect({cookie, s.probes_left, s.strikes, s.backoff, s.since});
  }
  w.begin_manifest();
  for (const auto& [cookie, entry] : cache_->entries) {
    if (!entry.probe.has_value()) continue;  // unmonitorable: nothing to save
    if (is_infrastructure_cookie(cookie)) continue;
    w.add_manifest(cookie, entry.epoch, *entry.probe);
  }
  w.finish();
}

Monitor::RestoreStats Monitor::restore_checkpoint(
    Checkpoint cp,
    const std::unordered_set<std::uint64_t>* stale_cookies) {
  RestoreStats rs;
  // Epoch fast-forward + generation bump: the restored incarnation resumes
  // the snapshot's epoch domain, then advances one barrier epoch PAST it —
  // every probe the dead incarnation left in flight carries epoch <=
  // cp.epoch < epoch_floor_ and classifies as a stale-epoch drop, never as
  // failure evidence (the same floor mechanism on_channel_state uses).
  while (expected_.epoch() < cp.epoch) expected_.advance_epoch();
  epoch_floor_ = std::max(cp.epoch_floor, expected_.advance_epoch());

  for (const Checkpoint::RuleVerdict& v : cp.verdicts) {
    switch (v.state) {
      case RuleState::kPending:
        // The update job died with the crash and its FlowMod may or may not
        // have applied: leave the seeded state; the steady cycle re-judges.
        continue;
      case RuleState::kSuspect:
        // Re-entered below only if its suspect entry also survived; a bare
        // suspect verdict without machine state restarts as unknown.
        rule_states_[v.cookie] = RuleState::kConfirmed;
        break;
      case RuleState::kFailed:
        // Silent seeding — no note_verdict, no alarm: this verdict was
        // published by the pre-crash incarnation.
        rule_states_[v.cookie] = RuleState::kFailed;
        failed_.insert(v.cookie);
        break;
      default:
        rule_states_[v.cookie] = v.state;
        break;
    }
    ++rs.verdicts;
  }

  for (const Checkpoint::RuleFloor& f : cp.floors) {
    // Dominated by the restore barrier floor for old observations, but
    // restored for fidelity: the sweep accounting and tests see the same
    // map a never-crashed monitor would carry.
    rule_floor_[f.cookie] = f.epoch;
    ++rs.floors;
  }

  for (const Checkpoint::SuspectState& s : cp.suspects) {
    if (expected_.table().find_by_cookie(s.cookie) == nullptr) continue;
    auto [it, fresh] = suspects_.try_emplace(s.cookie);
    if (!fresh) continue;
    it->second.probes_left = static_cast<int>(s.probes_left);
    it->second.strikes = static_cast<int>(s.strikes);
    it->second.backoff = std::max<SimTime>(s.backoff, config_.confirm_backoff);
    it->second.since = s.since;
    rule_states_[s.cookie] = RuleState::kSuspect;
    schedule_suspect_probe(s.cookie);
    ++rs.suspects;
  }

  for (Checkpoint::ManifestEntry& e : cp.manifest) {
    if (stale_cookies != nullptr && stale_cookies->contains(e.cookie)) {
      ++rs.manifest_dropped;  // journal tail proves a post-snapshot delta
      continue;
    }
    const Rule* rule = expected_.table().find_by_cookie(e.cookie);
    if (rule == nullptr) {
      ++rs.manifest_dropped;  // rule gone from controller intent
      continue;
    }
    ProbeCache::Entry& entry = cache_->entries[e.cookie];
    if (entry.probe.has_value()) continue;  // shared cache already has it
    entry.probe = std::move(e.probe);
    entry.failure = ProbeFailure::kNone;
    // Re-admitted at the RESTORED epoch: injections stamp the live epoch,
    // so nothing generated pre-crash can leak past the barrier floor.
    entry.epoch = expected_.epoch();
    ++rs.manifest_admitted;
  }
  // Every table rule needs a state node (the steady cycle resolves RuleState*
  // per slot): rules present in controller intent but absent from the
  // snapshot — added after it, or restored through the in-place supervisor
  // path where reset_for_recovery cleared the map — start as
  // kConfirmed-unknown and get re-judged.
  for (const Rule& rule : expected_.table().rules()) {
    rule_states_.try_emplace(rule.cookie, RuleState::kConfirmed);
  }

  // Steady slots cache Entry*/Rule* pointers; force a rebuild against the
  // re-admitted cache.  The wire frames re-craft lazily on first injection
  // (warm_probe_cache pre-crafts them when the Fleet warms off-path).
  steady_order_.clear();
  wheel_built_ = false;
  return rs;
}

void Monitor::seed_verdict(std::uint64_t cookie, RuleState state) {
  switch (state) {
    case RuleState::kFailed:
      rule_states_[cookie] = RuleState::kFailed;
      failed_.insert(cookie);
      break;
    case RuleState::kSuspect:
      // Counters died with the crash: unknown, re-judged by the cycle.
      rule_states_[cookie] = RuleState::kConfirmed;
      break;
    case RuleState::kPending:
      break;  // in-flight update: the re-issued FlowMod re-creates it
    default:
      rule_states_[cookie] = state;
      failed_.erase(cookie);
      break;
  }
}

void Monitor::reset_for_recovery() {
  stop();  // cancels every timer; clears outstanding/suspects/updates
  barriers_.clear();  // held replies died with the channel; nothing to release
  hold_queue_.clear();
  rule_states_.clear();
  failed_.clear();
  rule_floor_.clear();
  epoch_floor_ = 0;
  live_sessions_.clear();
  cache_->entries.clear();
  steady_order_.clear();
  wheel_built_ = false;
  for (auto& bucket : wheel_) bucket.clear();
  wheel_pos_.fill(0);
  last_probed_.clear();
  outstanding_spares_.clear();
  dirty_probe_cookies_.clear();
  // Keep: expected_ (durable controller intent), cumulative stats_,
  // channel state, infrastructure_installed_, burst_seq_ (monotone
  // heartbeat — a restore must read as progress, not as a reset).
}

void Monitor::rebind_runtime(Runtime* runtime) {
  // Timers fire on the runtime that armed them: migration is legal only
  // with everything cancelled (stop()/reset_for_recovery() first).
  assert(!steady_running_ && outstanding_.empty() && suspects_.empty() &&
         updates_.empty() && warmup_timer_ == 0 && steady_timer_ == 0 &&
         refill_timer_ == 0 && timeout_timer_ == 0);
  runtime_ = runtime;
}

}  // namespace monocle
