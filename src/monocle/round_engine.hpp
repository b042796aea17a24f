// RoundEngine: the N-worker execution core of the multi-threaded fleet
// round driver (ROADMAP "True multithreaded fleet engine").
//
// Shard affinity is the load-bearing invariant: every Monitor shard is
// pinned to exactly one worker, and ALL code that touches a shard's state —
// probe bursts, timer callbacks on its runtime, delta application, teardown
// — runs on that worker.  Monitor/SlotRuntime/BufferArena stay completely
// single-threaded; the engine moves WORK to state instead of sharing state
// between threads.  Cross-shard effects that must leave a worker
// (localization reports, fleet-routed deltas) travel through the Fleet's
// mailbox, which is drained on the orchestration thread after the engine's
// barrier (fleet.hpp).
//
// One exception: the orchestration thread may read AND mutate a shard
// between barriers, while every worker is parked.  Fleet::plan_budgets does
// so each round — Monitor::steady_staleness_max() rebuilds a steady order a
// delta cleared.  This is race-free only because every submission below
// blocks until its work completes; a call from any other thread, or while
// a submission is in flight, is a data race.
//
// Execution model: the owner (orchestration) thread submits work and blocks
// until it completes —
//
//  * run_round(): wakes every worker, runs the preregistered round job on
//    each, returns the summed contributions.  The condvar handshake is the
//    only synchronization a round needs; the job itself is registered once,
//    so the steady state allocates nothing per round.
//  * run_on(w, task): runs one control task (advance a worker's timers,
//    stop a monitor, apply a routed FlowMod) on worker w.
//  * quiesce(): a barrier without work — on return, every effect of
//    previously submitted rounds/tasks happens-before the caller's next
//    read, which is what makes consistent stats snapshots possible.
//
// All submission entry points are serialized on an ops mutex, so a
// telemetry thread calling quiesce() while the orchestration thread drives
// rounds is safe.  Tasks must not themselves call back into the engine
// (the owner is blocked inside the submitting call).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace monocle {

class RoundEngine {
 public:
  /// Spawns `workers` threads (at least 1), idle until work is submitted.
  explicit RoundEngine(std::size_t workers);
  ~RoundEngine();

  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// Registers the per-round work of one worker (called with the worker
  /// index; returns that worker's contribution, e.g. probes injected).
  /// Registered once before the first round — the cold path — so
  /// run_round() never constructs a callable.
  void set_round_job(std::function<std::size_t(std::size_t worker)> job);

  /// Runs the round job on every worker and returns the summed
  /// contributions.  Barrier semantics: on return all workers are idle
  /// again and everything they wrote happens-before the caller's next
  /// read.  Returns 0 after stop().
  std::size_t run_round();

  /// Runs `task` on worker `worker`, blocking until it completed.  Control
  /// path: timer advancement, shard teardown, routed deltas.  No-op after
  /// stop().
  void run_on(std::size_t worker, const std::function<void()>& task);

  /// Waits until every worker is idle; the acquired handshake makes all
  /// prior worker writes visible to the caller (consistent snapshots).
  void quiesce();

  /// Joins every worker.  Idempotent; submissions afterwards are no-ops.
  void stop();
  [[nodiscard]] bool running() const;

  /// Engine-local index of the worker the calling thread is, or
  /// SIZE_MAX when called from outside any engine worker (the
  /// orchestration thread).  Lets shard-affine sinks (the loopback
  /// harness's per-worker PacketIn queues) find "my" slot without
  /// plumbing the index through every callback.
  static std::size_t current_worker();

 private:
  void worker_loop(std::size_t index);

  /// Serializes submissions (run_round / run_on / quiesce / stop) so
  /// concurrent callers — orchestration + telemetry — interleave whole
  /// operations instead of corrupting the shared round state.
  std::mutex ops_mu_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_workers_;  // owner -> workers: work available
  std::condition_variable cv_done_;     // workers -> owner: work finished
  std::function<std::size_t(std::size_t)> round_job_;
  std::vector<const std::function<void()>*> tasks_;  // per worker, borrowed
  std::uint64_t round_seq_ = 0;  // bumped per run_round; workers chase it
  std::size_t round_sum_ = 0;
  std::size_t outstanding_ = 0;  // work items signaled but not yet finished
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace monocle
