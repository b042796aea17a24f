// Shared harness for exercising the probe fast path WITHOUT simulated
// switches: Monitors + a Multiplexer over a TopoView, with a synchronous
// loopback that turns every PacketOut straight into the PacketIn the real
// data plane would produce.  Used by the fig11 and fig13 microbenchmarks and
// by tests (wire parity, zero-allocation assertions, worker-count parity).
//
// What the loopback models: probes are injected via an upstream PacketOut,
// enter the probed switch, match their (plain-output) rule, leave on the
// rule's port and are caught by the downstream neighbor — so the PacketIn
// the harness synthesizes carries the SAME bytes at the catcher predicted
// by the probe's if_present outcome.  Everything the monitoring stack does
// per probe (craft/re-stamp, inject routing, PacketOut construction,
// PacketIn decode, classification, outstanding bookkeeping, timers) runs
// for real; only the switch data plane is shortcut.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "monocle/catching.hpp"
#include "monocle/monitor.hpp"
#include "monocle/multiplexer.hpp"
#include "monocle/round_engine.hpp"
#include "monocle/runtime.hpp"
#include "netbase/packet_crafter.hpp"
#include "netbase/probe_metadata.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace monocle::bench {

/// Allocation-free O(1) Runtime: timer ids encode their slot index (low 20
/// bits), so schedule (free-list pop) and cancel (direct index) never scan,
/// and every Monitor timer callback is a <=16-byte trivially copyable
/// lambda, so std::function's small-buffer optimization keeps scheduling
/// off the heap.  Time only advances via advance(); due callbacks run in
/// slot order (the harness never needs cross-slot ordering guarantees).
class SlotRuntime final : public Runtime {
 public:
  [[nodiscard]] netbase::SimTime now() const override { return now_; }

  std::uint64_t schedule(netbase::SimTime delay,
                         std::function<void()> fn) override {
    std::size_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = slots_.size();
      slots_.emplace_back();
    }
    const std::uint64_t id = (next_seq_++ << kIndexBits) | index;
    Slot& slot = slots_[index];
    slot.id = id;
    slot.when = now_ + delay;
    slot.fn = std::move(fn);
    return id;
  }

  void cancel(std::uint64_t timer_id) override {
    if (timer_id == 0) return;
    const std::size_t index = timer_id & (kIndexCapacity - 1);
    if (index >= slots_.size() || slots_[index].id != timer_id) return;
    release(index);
  }

  /// Advances the clock and fires every slot due by then.
  void advance(netbase::SimTime by) {
    now_ += by;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id != 0 && slots_[i].when <= now_) {
        auto fn = std::move(slots_[i].fn);
        release(i);
        fn();
      }
    }
  }

  [[nodiscard]] std::size_t pending() const {
    return slots_.size() - free_.size();
  }

 private:
  static constexpr std::uint64_t kIndexBits = 20;
  static constexpr std::uint64_t kIndexCapacity = 1 << kIndexBits;

  struct Slot {
    std::uint64_t id = 0;
    netbase::SimTime when = 0;
    std::function<void()> fn;
  };

  void release(std::size_t index) {
    slots_[index].id = 0;
    slots_[index].fn = nullptr;
    free_.push_back(index);
  }

  netbase::SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;
};

/// The probe metadata record inside a looped-back frame, located by its
/// magic (no header parse, so the stand-in switch's own cost stays flat and
/// the measured delta is the monitoring stack's).
inline std::optional<netbase::ProbeMetadataView> find_probe_metadata(
    std::span<const std::uint8_t> frame) {
  static constexpr std::uint8_t kMagic[4] = {0x4D, 0x4E, 0x43, 0x4C};
  const auto at = std::search(frame.begin(), frame.end(), std::begin(kMagic),
                              std::end(kMagic));
  if (at == frame.end()) return std::nullopt;
  return netbase::ProbeMetadataView::parse(
      frame.subspan(static_cast<std::size_t>(at - frame.begin())));
}

/// The loopback rig, driven by a RoundEngine (round_engine.hpp) with
/// shard-affine workers.  Each switch is pinned to worker (node order %
/// workers); its Monitor, SlotRuntime, Multiplexer::InjectContext and
/// loopback PacketIn queue are all owned by that worker.  One worker (the
/// default) runs inline on the calling thread.  The load-bearing
/// observation making the loopback thread-local: the thread that calls
/// inject is the PROBED shard's owner, and the Multiplexer invokes the
/// delivering shard's sender on that same thread — so the sender queues on
/// the CALLING worker (RoundEngine::current_worker()), never on the
/// delivering shard's, and a probe's whole PacketOut -> PacketIn round trip
/// stays on one thread.  Shared state during rounds (Multiplexer wiring
/// after warm_routes(), catch_points_) is read-only.
///
/// Determinism: a Monitor's event sequence — burst order within its
/// worker's list, loopback delivery order, timer order on its own runtime —
/// is independent of every other worker, so per-rule classifications and
/// per-monitor stats are byte-identical for ANY worker count
/// (tests/fleet_mt_test.cpp asserts this against workers=1).
class FastPathRig {
 public:
  struct Options {
    std::size_t workers = 1;
    std::size_t rules_per_switch = 8;
    /// fig11's baseline: the cost profile of the probe path before the
    /// fast path, rebuilt here from library calls.  Every injection
    /// encodes the metadata and crafts a fresh frame (encode_probe_metadata
    /// + craft_packet), a freshly built PacketOut is routed by
    /// view.peer() and a map lookup, and every PacketIn goes through the
    /// owning parse_packet + decode_probe_metadata and a map lookup — 5
    /// heap allocations per probe.  The Monitor still re-stamps its cached
    /// frame first; the legacy hook reads the stamp (generation, nonce)
    /// from it and re-crafts the frame from the rule's cached probe.
    bool legacy_profile = false;
    /// Failure injection: the loopback DROPS probes whose rule cookie is a
    /// multiple of this stride (0 = deliver everything), so those rules
    /// march deterministically through timeout -> suspect -> failed on
    /// every worker count.
    std::uint64_t fail_stride = 0;
    Monitor::Config monitor;  ///< base config (ids/rates overridden)
  };

  FastPathRig(const topo::Topology& topo, Options opts)
      : view_(topo), opts_(std::move(opts)), engine_(opts_.workers) {
    std::vector<SwitchId> dpids;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids.push_back(view_.dpid_of(n));
    }
    plan_ = CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);
    mux_ = std::make_unique<Multiplexer>(&view_);

    for (std::size_t w = 0; w < engine_.worker_count(); ++w) {
      wk_.push_back(std::make_unique<Wk>());
    }

    std::size_t index = 0;
    for (const SwitchId sw : dpids) {
      const std::size_t w = index++ % wk_.size();
      Monitor::Config cfg = opts_.monitor;
      cfg.switch_id = sw;
      cfg.steady_probe_rate = 0;  // externally paced bursts
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      // One cache per Monitor: cookies repeat across switches.
      auto cache = std::make_shared<ProbeCache>();
      if (opts_.legacy_profile) {
        hooks.inject = [this, sw, c = cache.get()](
                           std::uint16_t in_port,
                           std::span<const std::uint8_t> bytes) {
          return legacy_inject(sw, *c, in_port, bytes);
        };
      } else {
        const SwitchOrdinal ord = mux_->intern(sw);
        // Worker-owned InjectContext: concurrent injects through a shared
        // upstream deliverer never touch the same scratch/arena.
        Multiplexer::InjectContext* ctx = &wk_[w]->ctx;
        hooks.inject = [this, ord, ctx](std::uint16_t in_port,
                                        std::span<const std::uint8_t> bytes) {
          return mux_->inject_at(ord, in_port, bytes, ctx);
        };
      }
      auto monitor = std::make_unique<Monitor>(cfg, &wk_[w]->runtime, &view_,
                                               &plan_, std::move(hooks));
      monitor->set_probe_cache(cache);
      caches_.emplace(sw, std::move(cache));
      // Queue on the CALLING worker's pending list (see the class comment);
      // the orchestration thread — a one-worker engine — is worker 0.
      auto sender = [this](const openflow::Message& m) {
        const std::size_t cw = RoundEngine::current_worker();
        queue_packet_out(*wk_[cw < wk_.size() ? cw : 0], m);
      };
      if (opts_.legacy_profile) {
        legacy_monitors_.emplace(sw, monitor.get());
        legacy_senders_.emplace(sw, std::move(sender));
      } else {
        mux_->register_monitor(sw, monitor.get());
        mux_->set_switch_sender(sw, std::move(sender));
      }
      wk_[w]->monitors.push_back(monitor.get());
      monitors_.emplace(sw, std::move(monitor));
    }

    // Seed every switch with plain round-robin forwarding rules: probes for
    // them are positive (catchable) and rewrite-free, so the loopback can
    // replay the exact bytes at the predicted catcher.  Seeding and warm-up
    // run on this thread; the engine's first barrier publishes them to the
    // worker threads.
    for (const SwitchId sw : dpids) {
      Monitor& mon = *monitors_.at(sw);
      for (const openflow::Rule& r : workloads::l3_host_routes_even(
               opts_.rules_per_switch, view_.ports(sw))) {
        mon.seed_rule(r);
      }
      mon.start_externally_paced();  // warms the probe cache (batch path)
    }

    // Precompute each (switch, cookie)'s catch point from the generated
    // probe's if_present prediction — the stand-in for the data plane.
    for (const SwitchId sw : dpids) {
      const Monitor& mon = *monitors_.at(sw);
      for (const openflow::Rule& r : mon.expected_table().rules()) {
        if (mon.rule_state(r.cookie) != RuleState::kConfirmed) continue;
        // Reach into the outcome the monitor expects: first emission port.
        for (const auto& [port, rewrite] : r.outcome().emissions) {
          const auto peer = view_.peer(sw, port);
          if (!peer) break;
          catch_points_[catch_key(sw, r.cookie)] =
              CatchPoint{peer->sw, peer->port};
          break;
        }
      }
    }
    // Concurrent injection must never take the lazy route-resolve path
    // (it resizes the per-shard cache under readers).
    mux_->warm_routes();

    engine_.set_round_job([this](std::size_t w) {
      Wk& wk = *wk_[w];
      std::size_t injected = 0;
      for (Monitor* m : wk.monitors) {
        injected += m->steady_probe_burst(burst_);
      }
      deliver_pending(wk);  // worker-local probes looped back worker-locally
      return injected;
    });
  }

  ~FastPathRig() { stop(); }

  /// One externally paced probing round: every monitor bursts, then its
  /// worker delivers the synthesized PacketIns.  Returns probes injected.
  std::size_t round(std::size_t probes_per_switch) {
    burst_ = probes_per_switch;
    return engine_.run_round();
  }

  /// Advances every worker's timers by `by` ON that worker (timeouts may
  /// re-inject; the resulting loopbacks are delivered in the same task).
  void advance(netbase::SimTime by) {
    for (std::size_t w = 0; w < wk_.size(); ++w) {
      Wk& wk = *wk_[w];
      engine_.run_on(w, [this, &wk, by] {
        wk.runtime.advance(by);
        deliver_pending(wk);
      });
    }
  }

  /// Stops every monitor on its owning worker, then joins the workers.
  /// Idempotent; also run by the destructor.
  void stop() {
    if (!engine_.running()) return;
    for (std::size_t w = 0; w < wk_.size(); ++w) {
      Wk& wk = *wk_[w];
      engine_.run_on(w, [&wk] {
        for (Monitor* m : wk.monitors) m->stop();
      });
    }
    engine_.stop();
  }

  [[nodiscard]] Monitor& monitor(SwitchId sw) { return *monitors_.at(sw); }
  /// The probe cache `sw`'s Monitor fills and probes from.
  [[nodiscard]] const ProbeCache& probe_cache(SwitchId sw) const {
    return *caches_.at(sw);
  }
  [[nodiscard]] Multiplexer& mux() { return *mux_; }
  [[nodiscard]] const topo::TopoView& view() const { return view_; }
  [[nodiscard]] std::size_t worker_count() const { return wk_.size(); }
  [[nodiscard]] std::size_t monitor_count() const { return monitors_.size(); }

  /// Outstanding timers across all worker runtimes (0 after a clean stop).
  [[nodiscard]] std::size_t pending_timers() const {
    std::size_t n = 0;
    for (const auto& wk : wk_) n += wk->runtime.pending();
    return n;
  }

  [[nodiscard]] std::uint64_t probes_injected() const {
    std::uint64_t n = 0;
    for (const auto& [sw, mon] : monitors_) n += mon->stats().probes_injected;
    return n;
  }
  [[nodiscard]] std::uint64_t probes_caught() const {
    std::uint64_t n = 0;
    for (const auto& [sw, mon] : monitors_) n += mon->stats().probes_caught;
    return n;
  }
  [[nodiscard]] std::size_t confirmed_rules() const {
    std::size_t n = 0;
    for (const auto& [sw, mon] : monitors_) {
      for (const openflow::Rule& r : mon->expected_table().rules()) {
        n += mon->rule_state(r.cookie) == RuleState::kConfirmed;
      }
    }
    return n;
  }

  /// Cache/delta counters summed over every monitor (bench reporting).
  [[nodiscard]] MonitorStats summed_stats() const {
    MonitorStats total;
    for (const auto& [sw, mon] : monitors_) {
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
    }
    return total;
  }

  /// Byte-comparable classification + per-monitor-stats fingerprint: every
  /// rule's cookie and state plus each monitor's counter block, in switch
  /// order.  Two rigs with equal signatures made identical per-shard
  /// classification decisions AND took identical code paths (cache hits,
  /// retries, suspects...) — the parity bar every worker count must clear
  /// against workers=1.
  [[nodiscard]] std::vector<std::uint64_t> classification_signature() const {
    std::vector<std::uint64_t> sig;
    for (const auto& [sw, mon] : monitors_) {
      sig.push_back(sw);
      for (const openflow::Rule& r : mon->expected_table().rules()) {
        sig.push_back(r.cookie);
        sig.push_back(static_cast<std::uint64_t>(mon->rule_state(r.cookie)));
      }
      const MonitorStats& s = mon->stats();
      sig.insert(sig.end(),
                 {s.probes_injected, s.probes_caught, s.stale_probes,
                  s.probe_cache_hits, s.probe_cache_misses, s.alarms,
                  s.stale_epoch_drops, s.probe_retries, s.suspects_raised,
                  s.suspects_confirmed, s.flap_suppressions});
    }
    return sig;
  }

  struct CatchPoint {
    SwitchId catcher = 0;
    std::uint16_t catcher_in_port = 0;
  };
  /// (switch, cookie) packed for O(1) lookup per looped-back probe.
  static std::uint64_t catch_key(SwitchId sw, std::uint64_t cookie) {
    return (sw << 40) ^ cookie;
  }
  struct PendingIn {
    SwitchId catcher = 0;
    bool live = false;
  };

 private:
  /// Everything one worker owns; never touched by any other thread.
  struct Wk {
    SlotRuntime runtime;
    Multiplexer::InjectContext ctx;
    std::vector<Monitor*> monitors;  // burst order = registration order
    std::vector<PendingIn> pending;            // slot metadata (reused)
    std::vector<openflow::PacketIn> pending_data;  // buffers reused in place
    std::size_t pending_used = 0;
  };

  /// The legacy profile's injection (see Options::legacy_profile): the
  /// frame is crafted afresh from the rule's probe and the stamp the
  /// Monitor put on its cached frame, then copied into a new PacketOut
  /// routed the way the Multiplexer routes: the peer's existence picks
  /// upstream emission or OFPP_TABLE self-injection, and a missing sender
  /// on that branch means no injection.
  bool legacy_inject(SwitchId probed, const ProbeCache& cache,
                     std::uint16_t in_port,
                     std::span<const std::uint8_t> stamped) {
    const auto stamp = find_probe_metadata(stamped);
    if (!stamp) return false;
    const auto entry = cache.entries.find(stamp->rule_cookie());
    if (entry == cache.entries.end() || !entry->second.probe) return false;
    const Probe& probe = *entry->second.probe;
    netbase::ProbeMetadata meta;
    meta.switch_id = probed;
    meta.rule_cookie = probe.rule_cookie;
    meta.generation = stamp->generation();
    meta.expected = hash_prediction(probe.if_present);
    meta.nonce = stamp->nonce();
    const auto frame = netbase::craft_packet(
        probe.packet, netbase::encode_probe_metadata(meta));

    openflow::PacketOut po;
    po.buffer_id = 0xFFFFFFFF;
    po.data.assign(frame.begin(), frame.end());
    SwitchId deliver = probed;
    if (const auto peer = view_.peer(probed, in_port)) {
      deliver = peer->sw;
      po.in_port = openflow::kPortNone;
      po.actions = {openflow::Action::output(peer->port)};
    } else {
      po.in_port = in_port;
      po.actions = {openflow::Action::output(openflow::kPortTable)};
    }
    const auto sender = legacy_senders_.find(deliver);
    if (sender == legacy_senders_.end()) return false;
    sender->second(openflow::make_message(0, std::move(po)));
    return true;
  }

  /// The legacy profile's PacketIn path: owning parse, owning metadata
  /// decode, map-routed dispatch.
  void legacy_packet_in(SwitchId from, const openflow::PacketIn& pi) {
    const auto parsed = netbase::parse_packet(pi.data);
    if (!parsed) return;
    const auto meta = netbase::decode_probe_metadata(parsed->payload);
    if (!meta) return;
    const auto it = legacy_monitors_.find(meta->switch_id);
    if (it == legacy_monitors_.end()) return;
    const netbase::PacketView view{parsed->header, parsed->payload,
                                   parsed->checksums_valid};
    it->second->on_probe_caught(from, pi.in_port, view, *meta);
  }

  /// Deferred loopback: stash the PacketOut bytes (reused buffers) and the
  /// catch point in the worker's queue; deliver_pending() replays them as
  /// PacketIns.  Deferral matters — delivering inside inject() would
  /// resolve the probe before the Monitor files its outstanding entry.
  void queue_packet_out(Wk& wk, const openflow::Message& m) {
    if (!m.is<openflow::PacketOut>()) return;
    const auto& po = m.as<openflow::PacketOut>();
    // Identify the probed rule straight from the metadata record.
    const auto meta = find_probe_metadata(po.data);
    if (!meta) return;
    if (opts_.fail_stride != 0 &&
        meta->rule_cookie() % opts_.fail_stride == 0) {
      return;  // injected "rule failure": the probe vanishes, never caught
    }
    const auto it =
        catch_points_.find(catch_key(meta->switch_id(), meta->rule_cookie()));
    if (it == catch_points_.end()) return;  // unroutable: probe times out
    if (wk.pending.size() <= wk.pending_used) {
      wk.pending.resize(wk.pending_used + 1);
      wk.pending_data.resize(wk.pending_used + 1);
    }
    wk.pending[wk.pending_used].catcher = it->second.catcher;
    wk.pending[wk.pending_used].live = true;
    wk.pending_data[wk.pending_used].in_port = it->second.catcher_in_port;
    wk.pending_data[wk.pending_used].data.assign(po.data.begin(),
                                                 po.data.end());
    ++wk.pending_used;
  }

  void deliver_pending(Wk& wk) {
    for (std::size_t i = 0; i < wk.pending_used; ++i) {
      if (!wk.pending[i].live) continue;
      wk.pending[i].live = false;
      if (opts_.legacy_profile) {
        legacy_packet_in(wk.pending[i].catcher, wk.pending_data[i]);
      } else {
        mux_->on_packet_in(wk.pending[i].catcher, wk.pending_data[i]);
      }
    }
    wk.pending_used = 0;
  }

  topo::TopoView view_;
  Options opts_;
  CatchPlan plan_;
  std::unique_ptr<Multiplexer> mux_;
  RoundEngine engine_;
  std::vector<std::unique_ptr<Wk>> wk_;  // stable: ctx pointers captured
  std::map<SwitchId, std::unique_ptr<Monitor>> monitors_;
  std::map<SwitchId, std::shared_ptr<ProbeCache>> caches_;
  // The legacy profile's routing maps (Options::legacy_profile).
  std::unordered_map<SwitchId, Multiplexer::Sender> legacy_senders_;
  std::unordered_map<SwitchId, Monitor*> legacy_monitors_;
  std::unordered_map<std::uint64_t, CatchPoint> catch_points_;
  std::size_t burst_ = 0;  // set by round() before the engine barrier
};

/// One timed pass of 4-probe rounds over `rig` (~target_probes probes);
/// returns probes/sec and adds the probe count to `probes_total`.  The
/// round count depends only on the (deterministic) per-round injection
/// total, so every worker count executes the exact same probe sequence —
/// which is what makes the classification-signature comparison meaningful.
inline double timed_pass(FastPathRig& rig, std::size_t target_probes,
                         std::uint64_t& probes_total) {
  std::uint64_t probes = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  while (probes < target_probes) {
    const std::size_t injected = rig.round(4);
    if (injected == 0) break;  // no monitorable rules (degenerate topology)
    probes += injected;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  probes_total += probes;
  return wall_s > 0 ? probes / wall_s : 0;
}

}  // namespace monocle::bench
