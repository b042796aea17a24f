// The fleet round engine: RoundEngine semantics (N threads, and one worker
// run inline on the calling thread), the WallclockRuntime cross-thread post
// lane, seeded determinism parity of N workers against one
// (classifications AND localization verdicts byte-identical), cross-worker
// localization report delivery through the Fleet mailbox, mid-round stress
// teardown, and the Fleet::Stats consistent-snapshot regression.  This
// suite carries the `tsan` ctest label: the CI ThreadSanitizer leg builds it
// with -fsanitize=thread, so every cross-thread edge here is a checked
// claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/fastpath_harness.hpp"
#include "channel/wallclock_runtime.hpp"
#include "monocle/checkpoint.hpp"
#include "monocle/crash_plan.hpp"
#include "monocle/fleet.hpp"
#include "monocle/localizer.hpp"
#include "monocle/multiplexer.hpp"
#include "monocle/round_engine.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "topo/generators.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::kMillisecond;

// ---------------------------------------------------------------------------
// RoundEngine semantics
// ---------------------------------------------------------------------------

TEST(RoundEngine, RoundSumsWorkerContributions) {
  RoundEngine engine(4);
  ASSERT_EQ(engine.worker_count(), 4u);
  engine.set_round_job([](std::size_t worker) { return worker + 1; });
  // 1 + 2 + 3 + 4, every round, every worker exactly once.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(engine.run_round(), 10u);
  }
}

TEST(RoundEngine, RunOnTargetsTheRequestedWorker) {
  RoundEngine engine(4);
  std::vector<std::thread::id> ids(4);
  for (std::size_t w = 0; w < 4; ++w) {
    engine.run_on(w, [&ids, w] {
      ids[w] = std::this_thread::get_id();
      EXPECT_EQ(RoundEngine::current_worker(), w);
    });
  }
  // Four distinct worker threads, none of them this one.
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 0u);
}

TEST(RoundEngine, StopIsIdempotentAndTerminal) {
  RoundEngine engine(3);
  engine.set_round_job([](std::size_t) { return std::size_t{1}; });
  EXPECT_EQ(engine.run_round(), 3u);
  EXPECT_TRUE(engine.running());
  engine.stop();
  engine.stop();  // second stop is a no-op
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(engine.run_round(), 0u);  // rounds after stop inject nothing
}

TEST(RoundEngine, CurrentWorkerIsSentinelOutsideWorkers) {
  EXPECT_EQ(RoundEngine::current_worker(), SIZE_MAX);
  RoundEngine engine(2);
  engine.quiesce();  // barrier with no work is fine
  EXPECT_EQ(RoundEngine::current_worker(), SIZE_MAX);
}

TEST(RoundEngine, OneWorkerRunsOnTheCallingThread) {
  // One worker starts no thread: the round job, run_on tasks and the
  // barrier run on the submitting thread, which stays the orchestration
  // thread — current_worker() reads the sentinel throughout.
  RoundEngine engine(1);
  ASSERT_EQ(engine.worker_count(), 1u);
  std::vector<std::pair<std::thread::id, std::size_t>> seen;
  const auto note = [&seen] {
    seen.emplace_back(std::this_thread::get_id(),
                      RoundEngine::current_worker());
  };
  engine.set_round_job([&](std::size_t worker) {
    note();
    return worker + 7;
  });
  EXPECT_EQ(engine.run_round(), 7u);
  EXPECT_TRUE(engine.run_on(0, note));
  engine.quiesce();
  const std::pair caller{std::this_thread::get_id(), std::size_t{SIZE_MAX}};
  EXPECT_EQ(seen, (std::vector{caller, caller}));
}

TEST(RoundEngine, StopFromAnotherThreadWaitsOutAnInlineRound) {
  RoundEngine engine(1);
  std::atomic<bool> stopped{false};
  std::thread stopper;
  engine.set_round_job([&](std::size_t) {
    stopper = std::thread([&] {
      engine.stop();
      stopped.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(stopped.load()) << "stop() returned inside a round";
    return std::size_t{1};
  });
  EXPECT_EQ(engine.run_round(), 1u);
  stopper.join();
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(engine.run_round(), 0u);  // terminal, like the threaded engine
  EXPECT_FALSE(engine.run_on(0, [] { ADD_FAILURE() << "ran after stop"; }));
}

// ---------------------------------------------------------------------------
// WallclockRuntime cross-thread post lane
// ---------------------------------------------------------------------------

TEST(WallclockRuntime, PostRunsClosuresOnTheLoopThread) {
  channel::WallclockRuntime rt;
  std::atomic<bool> ran{false};
  std::thread::id loop_thread;
  std::thread poster([&rt, &ran, &loop_thread] {
    rt.post([&ran, &loop_thread] {
      loop_thread = std::this_thread::get_id();
      ran.store(true, std::memory_order_release);
    });
  });
  // The loop observes the posted closure within its 50 ms wait cap.
  rt.run(nullptr, [&ran] { return ran.load(std::memory_order_acquire); });
  poster.join();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(loop_thread, std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Seeded determinism parity: N workers vs one
// ---------------------------------------------------------------------------

TEST(MtFastPath, ClassificationsMatchSingleWorkerByteForByte) {
  const auto topo = topo::make_rocketfuel_as(24, 7);
  std::vector<std::uint64_t> reference;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    bench::FastPathRig::Options opts;
    opts.workers = workers;
    opts.rules_per_switch = 6;
    bench::FastPathRig rig(topo, opts);
    for (int round = 0; round < 12; ++round) rig.round(3);
    rig.stop();
    EXPECT_GT(rig.probes_injected(), 0u);
    EXPECT_EQ(rig.probes_caught(), rig.probes_injected());
    const auto sig = rig.classification_signature();
    if (reference.empty()) {
      reference = sig;
    } else {
      EXPECT_EQ(sig, reference)
          << "classifications diverged at " << workers << " workers";
    }
  }
}

TEST(MtFastPath, FailurePathMatchesSingleWorkerByteForByte) {
  // Drop every third rule's probes at the loopback: those rules march
  // through timeout -> retry -> failure on every worker count, exercising
  // the timer path (worker-local runtimes) and the verdict machine.
  const auto topo = topo::make_rocketfuel_as(16, 11);
  std::vector<std::uint64_t> reference;
  std::set<std::pair<SwitchId, std::uint64_t>> reference_failed;
  for (const std::size_t workers : {1u, 4u}) {
    bench::FastPathRig::Options opts;
    opts.workers = workers;
    opts.rules_per_switch = 6;
    opts.fail_stride = 3;
    bench::FastPathRig rig(topo, opts);
    for (int round = 0; round < 6; ++round) {
      rig.round(3);
      rig.advance(60 * kMillisecond);  // past probe_timeout: retries fire
    }
    rig.advance(600 * kMillisecond);  // exhaust every retry train
    rig.stop();

    std::set<std::pair<SwitchId, std::uint64_t>> failed;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = topo::TopoView(topo).dpid_of(n);
      for (const openflow::Rule& r :
           rig.monitor(sw).expected_table().rules()) {
        if (rig.monitor(sw).rule_state(r.cookie) == RuleState::kFailed) {
          failed.emplace(sw, r.cookie);
        }
      }
    }
    EXPECT_FALSE(failed.empty()) << "fail_stride produced no failures";
    const auto sig = rig.classification_signature();
    if (reference.empty()) {
      reference = sig;
      reference_failed = failed;
    } else {
      EXPECT_EQ(sig, reference);
      EXPECT_EQ(failed, reference_failed);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet over 1..N round workers: a loopback rig around Fleet itself
// ---------------------------------------------------------------------------

/// Fleet-level loopback rig: per-worker SlotRuntimes + InjectContexts wired
/// through Fleet::Config::worker_runtimes, probes looped back worker-locally
/// exactly like bench::FastPathRig, plus switch-level failure injection
/// (probes of dead switches vanish).  Every worker count takes the same
/// path; workers == 1 runs the engine inline — the parity baseline.  Each
/// published diagnosis is recorded with the orchestration time it was
/// published at.
class FleetMtRig {
 public:
  /// Optional crash-safety plane (docs/DESIGN.md §15), off by default so the
  /// parity tests keep their exact baseline config.
  struct Extras {
    telemetry::CheckpointStore* checkpoints = nullptr;
    CrashPlan* crash_plan = nullptr;
  };

  // Two overloads instead of `Extras extras = {}` (GCC 12 nested-class
  // NSDMI workaround, same as Fleet::enable_supervision).
  FleetMtRig(const topo::Topology& topo, std::size_t workers,
             std::set<SwitchId> dead = {})
      : FleetMtRig(topo, workers, std::move(dead), Extras{}) {}
  FleetMtRig(const topo::Topology& topo, std::size_t workers,
             std::set<SwitchId> dead, Extras extras)
      : view_(topo), dead_(std::move(dead)) {
    std::vector<SwitchId> dpids;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids.push_back(view_.dpid_of(n));
    }
    plan_ = CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);
    mux_ = std::make_unique<Multiplexer>(&view_);

    for (std::size_t w = 0; w < std::max<std::size_t>(workers, 1); ++w) {
      wk_.push_back(std::make_unique<Wk>());
    }

    Fleet::Config config;
    config.monitor.probe_timeout = 20 * kMillisecond;
    config.monitor.probe_retries = 1;
    config.probes_per_switch = 3;
    config.localize_debounce = 50 * kMillisecond;
    config.on_diagnosis = [this](const NetworkDiagnosis& d) {
      diagnoses_.push_back(d);
      diagnosed_at_.push_back(orch_.now());
    };
    config.checkpoints = extras.checkpoints;
    config.crash_plan = extras.crash_plan;
    for (auto& wk : wk_) config.worker_runtimes.push_back(&wk->runtime);
    fleet_ = std::make_unique<Fleet>(config, &orch_, &view_, &plan_);

    for (const SwitchId sw : dpids) {
      const SwitchOrdinal ord = mux_->intern(sw);
      // The Fleet pins the shard to next_shard_worker(); our inject context
      // must agree with that assignment.
      Multiplexer::InjectContext* ctx =
          &wk_[fleet_->next_shard_worker() % wk_.size()]->ctx;
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      hooks.inject = [this, ord, ctx](std::uint16_t in_port,
                                      std::span<const std::uint8_t> bytes) {
        return mux_->inject_at(ord, in_port, bytes, ctx);
      };
      Monitor* mon = fleet_->add_shard(sw, std::move(hooks));
      mux_->register_monitor(sw, mon);
      // Loopback sender: queue on the CALLING worker (the probed shard's
      // owner; the orchestration thread when one worker runs inline), so
      // delivery stays thread-local (see bench::FastPathRig).
      mux_->set_switch_sender(sw, [this](const openflow::Message& m) {
        const std::size_t cw = RoundEngine::current_worker();
        queue_packet_out(*wk_[cw < wk_.size() ? cw : 0], m);
      });
      for (const openflow::Rule& r :
           workloads::l3_host_routes_even(4, view_.ports(sw))) {
        mon->seed_rule(r);
      }
    }
    fleet_->prepare();
    for (const SwitchId sw : dpids) {
      const Monitor& mon = *fleet_->monitor(sw);
      for (const openflow::Rule& r : mon.expected_table().rules()) {
        if (mon.rule_state(r.cookie) != RuleState::kConfirmed) continue;
        for (const auto& [port, rewrite] : r.outcome().emissions) {
          const auto peer = view_.peer(sw, port);
          if (!peer) break;
          catch_points_[bench::FastPathRig::catch_key(sw, r.cookie)] =
              bench::FastPathRig::CatchPoint{peer->sw, peer->port};
          break;
        }
      }
    }
    // The Fleet only warms routes for the backend add_shard overload; the
    // plain overload leaves the Multiplexer to the host — us.
    mux_->warm_routes();
  }

  /// One fleet round, then worker-local delivery of its loopbacks.
  std::size_t round() {
    const std::size_t injected = fleet_->start_round();
    for (std::size_t w = 0; w < wk_.size(); ++w) {
      fleet_->run_on_worker(w, [this, w] { deliver_pending(*wk_[w]); });
    }
    return injected;
  }

  /// Advances shard timers on their owning workers, then the
  /// orchestration timers — debounced localization fires here.
  void advance(netbase::SimTime by) {
    for (std::size_t w = 0; w < wk_.size(); ++w) {
      fleet_->run_on_worker(w, [this, w, by] {
        wk_[w]->runtime.advance(by);
        deliver_pending(*wk_[w]);
      });
    }
    orch_.advance(by);
  }

  [[nodiscard]] Fleet& fleet() { return *fleet_; }
  [[nodiscard]] const std::vector<NetworkDiagnosis>& diagnoses() const {
    return diagnoses_;
  }
  /// Orchestration time of each published diagnosis (parallel to
  /// diagnoses()).
  [[nodiscard]] const std::vector<netbase::SimTime>& diagnosed_at() const {
    return diagnosed_at_;
  }
  [[nodiscard]] std::size_t pending_timers() const {
    std::size_t n = orch_.pending();
    for (const auto& wk : wk_) n += wk->runtime.pending();
    return n;
  }

  /// Flattened, comparable form of a diagnosis (order is deterministic:
  /// the localizer sorts its output).
  static std::vector<std::uint64_t> flatten(const NetworkDiagnosis& d) {
    std::vector<std::uint64_t> out;
    for (const auto& l : d.links) {
      out.insert(out.end(), {l.a, l.port_a, l.b, l.port_b,
                             static_cast<std::uint64_t>(l.corroborated),
                             l.failed_rules});
    }
    out.push_back(0xFFFF'FFFF'FFFF'FFFFull);
    for (const auto& s : d.switches) {
      out.insert(out.end(), {s.sw, s.suspect_links, s.total_links,
                             s.failed_rules});
    }
    out.push_back(0xFFFF'FFFF'FFFF'FFFFull);
    for (const auto& i : d.isolated) out.insert(out.end(), {i.sw, i.cookie});
    return out;
  }

  /// Per-rule classification fingerprint across every shard.
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

 private:
  struct Wk {
    bench::SlotRuntime runtime;
    Multiplexer::InjectContext ctx;
    std::vector<bench::FastPathRig::PendingIn> pending;
    std::vector<openflow::PacketIn> pending_data;
    std::size_t pending_used = 0;
  };

  void queue_packet_out(Wk& wk, const openflow::Message& m) {
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
    if (dead_.count(meta->switch_id()) != 0) return;  // dead switch: vanish
    const auto it = catch_points_.find(
        bench::FastPathRig::catch_key(meta->switch_id(), meta->rule_cookie()));
    if (it == catch_points_.end()) return;
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
      mux_->on_packet_in(wk.pending[i].catcher, wk.pending_data[i]);
    }
    wk.pending_used = 0;
  }

  topo::TopoView view_;
  std::set<SwitchId> dead_;
  CatchPlan plan_;
  std::unique_ptr<Multiplexer> mux_;
  bench::SlotRuntime orch_;
  std::vector<std::unique_ptr<Wk>> wk_;
  std::unique_ptr<Fleet> fleet_;
  std::unordered_map<std::uint64_t, bench::FastPathRig::CatchPoint>
      catch_points_;
  std::vector<NetworkDiagnosis> diagnoses_;
  std::vector<netbase::SimTime> diagnosed_at_;
};

TEST(FleetMt, LocalizationVerdictsMatchSingleWorkerDriver) {
  const auto topo = topo::make_rocketfuel_as(20, 5);
  const SwitchId dead = topo::TopoView(topo).dpid_of(3);

  std::vector<std::uint64_t> ref_sig;
  std::vector<std::uint64_t> ref_diag;
  std::vector<std::uint64_t> ref_published;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    FleetMtRig rig(topo, workers, {dead});
    // Full schedule rotations with timer advances between: probes of the
    // dead switch time out, retry and fail on their shard's own runtime.
    const std::size_t rounds = rig.fleet().schedule().round_count();
    for (std::size_t i = 0; i < rounds * 2; ++i) {
      rig.round();
      rig.advance(25 * kMillisecond);
    }
    rig.advance(200 * kMillisecond);
    EXPECT_GT(rig.fleet().failed_rule_count(), 0u) << workers << " workers";

    const auto sig = rig.classification_signature();
    const auto diag = FleetMtRig::flatten(rig.fleet().diagnose());
    // The published diagnoses with their simulated times: an alarm arms
    // the evidence pass at the alarm's own time on every worker count —
    // on the orchestration thread at once, from a worker thread through
    // the mailbox drained right after the barrier.
    ASSERT_FALSE(rig.diagnoses().empty()) << workers << " workers";
    std::vector<std::uint64_t> published;
    for (std::size_t i = 0; i < rig.diagnoses().size(); ++i) {
      published.push_back(rig.diagnosed_at()[i]);
      const auto flat = FleetMtRig::flatten(rig.diagnoses()[i]);
      published.insert(published.end(), flat.begin(), flat.end());
    }
    if (ref_sig.empty()) {
      ref_sig = sig;
      ref_diag = diag;
      ref_published = published;
    } else {
      EXPECT_EQ(sig, ref_sig) << "classifications diverged at " << workers
                              << " workers";
      EXPECT_EQ(diag, ref_diag) << "localization verdict diverged at "
                                << workers << " workers";
      EXPECT_EQ(published, ref_published)
          << "published diagnoses or their times diverged at " << workers
          << " workers";
    }
    rig.fleet().stop();
    EXPECT_EQ(rig.pending_timers(), 0u);
  }
}

TEST(FleetMt, CrossWorkerAlarmsReachTheOrchestrationLocalizer) {
  const auto topo = topo::make_rocketfuel_as(20, 9);
  // Registration order == node order, so nodes 0 and 1 land on workers 0
  // and 1 of a 4-worker fleet: their alarms MUST cross workers through the
  // mailbox to arm the orchestration thread's debounce timer.
  const topo::TopoView view(topo);
  const std::set<SwitchId> dead = {view.dpid_of(0), view.dpid_of(1)};
  FleetMtRig rig(topo, 4, dead);

  const std::size_t rounds = rig.fleet().schedule().round_count();
  for (std::size_t i = 0; i < rounds * 2; ++i) {
    rig.round();
    rig.advance(25 * kMillisecond);
  }
  rig.advance(200 * kMillisecond);  // past the 50 ms localize debounce

  EXPECT_GT(rig.fleet().stats_snapshot().alarms, 0u);
  ASSERT_FALSE(rig.diagnoses().empty())
      << "worker alarms never reached the orchestration localizer";
  // The published diagnosis explains failures on BOTH dead switches —
  // reports from shards on different workers were all collected.
  const NetworkDiagnosis& d = rig.diagnoses().back();
  std::set<SwitchId> blamed;
  for (const auto& l : d.links) {
    blamed.insert(l.a);
    blamed.insert(l.b);
  }
  for (const auto& s : d.switches) blamed.insert(s.sw);
  for (const auto& i : d.isolated) blamed.insert(i.sw);
  for (const SwitchId sw : dead) {
    EXPECT_EQ(blamed.count(sw), 1u) << "diagnosis missed dead switch " << sw;
  }
  rig.fleet().stop();
  EXPECT_EQ(rig.pending_timers(), 0u);
}

TEST(FleetMt, StressTeardownMidRoundLeavesNothingDangling) {
  const auto topo = topo::make_rocketfuel_as(32, 13);
  FleetMtRig rig(topo, 8);
  Fleet& fleet = rig.fleet();
  ASSERT_NE(fleet.engine(), nullptr);

  // Driver (orchestration) thread hammers rounds; this thread pulls the
  // plug mid-round through the one entry point that is thread-safe by
  // contract, RoundEngine::stop().  A start_round() after it bursts nothing
  // — the engine runs no more rounds — and the join inside stop() made the
  // shards exclusively the driver's again.
  std::atomic<std::uint64_t> rounds{0};
  std::thread driver([&fleet, &rounds] {
    while (fleet.engine()->running()) {
      fleet.start_round();
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (rounds.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  fleet.engine()->stop();  // mid-round, from the wrong thread — by design
  driver.join();

  fleet.stop();
  // No dangling timers anywhere (worker runtimes AND orchestration), and
  // the counters were not torn by the teardown: fleet-side injection total
  // equals the sum over shards.
  EXPECT_EQ(rig.pending_timers(), 0u);
  std::uint64_t shard_total = 0;
  for (const auto& [sw, mon] : fleet.shards()) {
    shard_total += mon->stats().probes_injected;
  }
  EXPECT_EQ(fleet.stats_snapshot().probes_injected, shard_total);
}

TEST(FleetMt, StatsSnapshotIsConsistentUnderConcurrentRounds) {
  const auto topo = topo::make_rocketfuel_as(24, 17);
  FleetMtRig rig(topo, 4);
  Fleet& fleet = rig.fleet();

  // Telemetry scraper: loops consistent snapshots while rounds execute on
  // the workers.  Every snapshot must be coherent — probes_injected only
  // grows, and rounds_started never lags behind what we have observed.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::thread scraper([&fleet, &done, &snapshots] {
    std::uint64_t last_probes = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Fleet::Stats s = fleet.stats_snapshot();
      EXPECT_GE(s.probes_injected, last_probes);
      last_probes = s.probes_injected;
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 200; ++i) rig.round();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(snapshots.load(), 0u);

  // Quiesced: the relaxed per-shard counters sum to the fleet totals.
  fleet.engine()->quiesce();
  std::uint64_t shard_total = 0;
  for (const auto& [sw, mon] : fleet.shards()) {
    shard_total += mon->stats().probes_injected;
  }
  const Fleet::Stats s = fleet.stats_snapshot();
  EXPECT_EQ(s.probes_injected, shard_total);
  EXPECT_EQ(s.rounds_started, 200u);
  fleet.stop();
  EXPECT_EQ(rig.pending_timers(), 0u);
}

// ---------------------------------------------------------------------------
// Supervised recovery across round workers (docs/DESIGN.md §15)
// ---------------------------------------------------------------------------

TEST(FleetMt, WorkerWedgeMigratesShardsToHealthyWorker) {
  // Wedge EVERY shard of worker 1 for a long window.  The supervisor knows
  // nothing about the plan — it sees worker 1's heartbeats stall, reads it
  // as a stuck worker, and migrates the shards to worker 2 (rebinding each
  // Monitor's Runtime), where they must resume bursting WHILE worker 1 is
  // still wedged.
  const auto topo = topo::make_rocketfuel_as(16, 21);
  telemetry::CheckpointStore store;
  CrashPlan plan;
  plan.wedge_worker(1, 20, 60);
  FleetMtRig rig(topo, 4, {}, {&store, &plan});
  Fleet& fleet = rig.fleet();
  Fleet::SupervisorOptions sup;
  sup.missed_rounds = 2;
  sup.min_worker_shards_stuck = 1;
  fleet.enable_supervision(sup);

  std::set<SwitchId> pinned;  // worker 1's shards, before any migration
  for (const auto& [sw, mon] : fleet.shards()) {
    if (fleet.shard_worker(sw) == 1) pinned.insert(sw);
  }
  ASSERT_GE(pinned.size(), 2u);

  for (int i = 0; i < 70; ++i) {
    rig.round();
    rig.advance(25 * kMillisecond);
  }

  const Fleet::SupervisorStats& stats = fleet.supervisor().stats;
  EXPECT_EQ(stats.quarantines, pinned.size());
  EXPECT_EQ(stats.worker_reassignments, pinned.size());
  EXPECT_EQ(stats.readmissions, pinned.size());
  EXPECT_EQ(stats.restores + stats.cold_restores, pinned.size());
  EXPECT_GE(stats.restores, 1u) << "checkpoints existed; restores must be warm";
  for (const SwitchId sw : pinned) {
    EXPECT_EQ(fleet.shard_worker(sw), 2u) << "shard " << sw << " not migrated";
    EXPECT_FALSE(fleet.shard_quarantined(sw));
    // Migrated shards are live again: probes flowed after re-admission.
    EXPECT_GT(fleet.monitor(sw)->stats().probes_injected, 0u);
  }
  // A healthy data plane through a wedge + migration yields zero failures.
  EXPECT_EQ(fleet.failed_rule_count(), 0u);
  fleet.stop();
  EXPECT_EQ(rig.pending_timers(), 0u);
}

TEST(FleetMt, StressTeardownWithCheckpointWritesInFlight) {
  // The StressTeardown scenario with the checkpoint writer enabled: the
  // driver thread's rounds are appending snapshots through the reusable
  // encode buffers when the engine dies under it.  stop() must leave no
  // dangling timers AND no torn store state — every surviving snapshot
  // still decodes.
  const auto topo = topo::make_rocketfuel_as(32, 29);
  telemetry::CheckpointStore store;
  FleetMtRig rig(topo, 8, {}, {&store, nullptr});
  Fleet& fleet = rig.fleet();
  fleet.enable_supervision();
  ASSERT_NE(fleet.engine(), nullptr);

  std::atomic<std::uint64_t> rounds{0};
  std::thread driver([&fleet, &rounds] {
    while (fleet.engine()->running()) {
      fleet.start_round();
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (rounds.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  fleet.engine()->stop();  // mid-round, from the wrong thread — by design
  driver.join();
  fleet.stop();

  EXPECT_EQ(rig.pending_timers(), 0u);
  EXPECT_GT(store.appended(), 0u);
  const auto latest = store.load_latest();
  EXPECT_FALSE(latest.empty());
  for (const auto& [key, bytes] : latest) {
    if (key == Checkpoint::kFleetStateKey) {
      EXPECT_TRUE(FleetCheckpoint::decode(bytes).has_value());
    } else {
      const auto cp = Checkpoint::decode(bytes);
      ASSERT_TRUE(cp.has_value()) << "snapshot for shard " << key << " torn";
      EXPECT_EQ(cp->shard, key);
    }
  }
}

}  // namespace
}  // namespace monocle
