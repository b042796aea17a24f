// RoundEngine: the Fleet's round driver, for one worker or N.
//
// Shard affinity is the load-bearing invariant: every Monitor shard is
// pinned to exactly one worker, and ALL code that touches a shard's state —
// probe bursts, timer callbacks on its runtime, delta application, teardown
// — runs on that worker.  Monitor/SlotRuntime/BufferArena stay completely
// single-threaded; the engine moves WORK to state instead of sharing state
// between threads.  Cross-shard effects that must leave a worker thread
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
//  * run_round(): runs the preregistered round job once per worker and
//    returns the summed contributions.  The job is registered once, so the
//    steady state allocates nothing per round.
//  * run_on(w, task): runs one control task (advance a worker's timers,
//    stop a monitor, apply a routed FlowMod) on worker w.
//  * quiesce(): a barrier without work — on return, every effect of
//    previously submitted rounds/tasks happens-before the caller's next
//    read, which is what makes consistent stats snapshots possible.
//
// One worker starts no thread: the submitting (orchestration) thread runs
// the work itself, and current_worker() stays the sentinel.  N > 1 workers
// are threads woken through a condvar handshake.  All submissions are
// serialized on an ops mutex, so a telemetry thread may quiesce() while
// the orchestration thread drives rounds, and stop() waits out an
// in-flight round.  Tasks must not call back into the engine.
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
  /// At least 1 worker.  One runs inline on the submitting thread; more
  /// spawn one thread each, idle until work is submitted.
  explicit RoundEngine(std::size_t workers);
  ~RoundEngine();

  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return tasks_.size(); }

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
  /// path: timer advancement, shard teardown, routed deltas.  Returns false,
  /// having run nothing, after stop(): every shard is the caller's again.
  bool run_on(std::size_t worker, const std::function<void()>& task);

  /// Waits until every worker is idle; the acquired handshake makes all
  /// prior worker writes visible to the caller (consistent snapshots).
  void quiesce();

  /// Joins every worker (after an in-flight submission finished; any
  /// thread may call it).  Idempotent; submissions afterwards are no-ops.
  void stop();
  [[nodiscard]] bool running() const;

  /// Engine-local index of the worker thread the caller is, or SIZE_MAX
  /// outside any worker thread (the orchestration thread, where a
  /// one-worker engine runs).  Lets shard-affine sinks (the loopback
  /// harness's per-worker queues, the Fleet's mailbox) find their slot
  /// without plumbing the index through every callback.
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

  std::vector<std::thread> threads_;  // empty: one worker, run inline
};

}  // namespace monocle
