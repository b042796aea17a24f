// The closed loop every workload shares.
//
// A run is: set up the workload several times (setup_s is their median),
// run the seed's deterministic verification prefix on the first instances
// and require equal classification signatures, warm the last one up and
// measure it for --seconds of wall time in two closed-loop phases with one
// client:
//
//   steady  rounds back to back; each round starts once the previous one
//           resolved.  probes_per_s and the full-coverage interval
//           (sweep_ms_p90) come from here.
//   update  one update at a time through Fleet::route_flow_mod, the next
//           sent once on_update_confirmed fired for the previous one.
//           update_ms_p90 comes from here.
//
// and finally drain every outstanding probe and update.  Simulated delays
// are advanced, not waited for, so wall time is the program's work.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "monocle/fleet.hpp"
#include "openflow/messages.hpp"

namespace perfbench {

/// Which rules the current sweep has probed, against a fixed target: every
/// rule the Monitors probe (Rig::coverage_target()).  A full coverage
/// completes once each of them was probed since the previous one, so a
/// rule that stops being probed stops every later coverage.
class Coverage {
 public:
  /// Starts counting sweeps of `target` rules.
  void begin(std::uint64_t target) {
    target_ = target;
    active_ = true;
    next_sweep();
  }
  /// True when the current sweep has probed every rule of the target.
  [[nodiscard]] bool complete() const { return count_ >= target_; }
  void stop() { active_ = false; }
  [[nodiscard]] bool active() const { return active_; }
  void note(std::uint64_t sw, std::uint64_t cookie) {
    if (active_) note(seen_[(sw << 40) ^ cookie]);
  }
  /// Same, for rigs that keep the rule's generation slot themselves.
  void note(std::uint32_t& seen) {
    if (active_ && seen != gen_) {
      seen = gen_;
      ++count_;
    }
  }
  void next_sweep() {
    ++gen_;
    count_ = 0;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> seen_;
  std::uint64_t target_ = 0;
  std::uint64_t count_ = 0;
  std::uint32_t gen_ = 0;
  bool active_ = false;
};

/// The closed-loop update stream every workload shares: a seeded cycle of
/// six host-route updates that leaves the table as it found it --
///
///   move a route to another port, move it back,
///   add a fresh route, delete it,
///   delete a route, add it back.
///
/// The kind mix is fixed and the table returns to its base after every
/// cycle, so every seed does the same work; the seed picks the targets.
/// (A ChurnGenerator stream drifts: its table and the live SAT sessions
/// wander into seed-dependent regimes whose update cost differs several
/// fold, see perfbench/spec.json.)
class UpdateCycle {
 public:
  explicit UpdateCycle(std::uint64_t seed) : rng_(seed) {}
  /// True when the next update starts a cycle (the caller may move on to
  /// another switch).
  [[nodiscard]] bool at_cycle_start() const { return step_ == 0; }
  /// The next update.  `rules` are the switch's host routes a cycle may
  /// target (infrastructure and seeded failures excluded), `ports` its
  /// forwarding ports.
  monocle::openflow::FlowMod next(
      const std::vector<monocle::openflow::Rule>& rules,
      const std::vector<std::uint16_t>& ports);

 private:
  std::uint16_t other_port(std::uint16_t port,
                           const std::vector<std::uint16_t>& ports);

  /// Cookies of the cycle's fresh routes (far above any base route's).
  static constexpr std::uint64_t kFreshCookie = 1ull << 32;

  std::mt19937_64 rng_;
  int step_ = 0;
  monocle::openflow::Rule target_;
  std::uint32_t fresh_ = 0;
};

/// Applies `fm` to `rules` the way the switch does (the stream's own view
/// of the table, for the end-of-run comparison).
void apply_flow_mod(std::vector<monocle::openflow::Rule>& rules,
                    const monocle::openflow::FlowMod& fm);

/// Sum of every shard's MonitorStats.
monocle::MonitorStats sum_stats(const monocle::Fleet& fleet);

/// Counters a rig adds to the traced summary (cumulative; the loop
/// subtracts the values read at the start of the measured phase).
struct TraceInputs {
  std::uint64_t timer_ops = 0;     ///< Runtime schedule + cancel calls
  std::uint64_t frames = 0;        ///< OfSession tx + rx frames (tcp)
  std::uint64_t pumps = 0;         ///< pump_wait calls (tcp)
  std::int64_t idle_pump_ns = 0;   ///< pump_wait calls that handled nothing
  std::uint64_t sim_events = 0;    ///< EventQueue events run
};

/// One update's closed loop, as a rig reports it.
struct UpdateOutcome {
  bool confirmed = false;
  std::int64_t latency_ns = 0;   ///< route_flow_mod call .. on_update_confirmed
  std::int64_t call_ns = 0;      ///< the synchronous route_flow_mod call
  std::int64_t call_gen_ns = 0;  ///< Δ generation_time inside that call
};

/// One workload instance as the closed loop sees it.
class Rig {
 public:
  virtual ~Rig() = default;
  virtual monocle::Fleet& fleet() = 0;
  virtual monocle::telemetry::TelemetryHub& hub() = 0;
  virtual monocle::telemetry::CheckpointStore& store() = 0;
  virtual Coverage& coverage() = 0;
  /// The rules a full coverage must probe: every rule the Monitors probe,
  /// seeded failures excluded.
  virtual std::uint64_t coverage_target() = 0;
  /// One closed-loop round; returns probes injected.
  virtual std::size_t round() = 0;
  /// One closed-loop update.
  virtual UpdateOutcome update() = 0;
  /// Advances timers and the data plane until no probe or update is left;
  /// false when something stayed unresolved.
  virtual bool drain() = 0;
  /// Deterministic verification prefix; appends its violations to `r` and
  /// returns the classification signature.
  virtual std::vector<std::uint64_t> prefix(Result& r) = 0;
  /// Brings a fresh instance to the state the measured phases start from
  /// (rounds only: the state is the same for every seed).
  virtual void warm() = 0;
  /// End-of-run correctness checks (after drain).
  virtual void final_checks(Result& r) = 0;
  /// Workload-specific per-layer counters for the traced summary.
  virtual void fill_trace(TraceInputs& in) = 0;
  /// Share of the measured wall time the steady phase gets (the update
  /// phase gets the rest); sized so both leave enough samples.
  [[nodiscard]] virtual double steady_share() const = 0;
};

using RigFactory = std::unique_ptr<Rig> (*)(std::uint64_t seed);

/// Runs a whole workload: kSetups set-ups, of which the first `verifying`
/// run the prefix and the last is measured; both measured phases, drain,
/// checks, metrics.  With `reference`, every prefix signature must also
/// equal it (a run of the same seed over another transport).
Result run_workload(RigFactory make, int verifying,
                    const std::vector<std::uint64_t>* reference = nullptr);

/// Fleet::start_round inside a kRound span; the traced build also splits
/// the round's wall time into the Monitors' burst work and the Fleet's own.
/// Returns the probes injected.
std::size_t start_round(monocle::Fleet& fleet);

}  // namespace perfbench
