// The rig behind the tcp workload: a star fabric over the simulated data
// plane (switchsim::Network on one EventQueue, Testbed-style port wiring),
// one Fleet shard per switch bound through a SwitchBackend, and a
// host-route table on the hub that the seeded UpdateCycle keeps rewriting
// through Fleet::route_flow_mod.  The derived rig supplies the backends
// (OpenFlow 1.0 over sockets, or the in-process reference over a loopback
// transport) and therefore how the simulation advances (advance()).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "channel/switch_backend.hpp"
#include "closed_loop.hpp"
#include "monocle/catching.hpp"
#include "monocle/fleet.hpp"
#include "monocle/multiplexer.hpp"
#include "switchsim/event_queue.hpp"
#include "switchsim/network.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "telemetry/hub.hpp"
#include "topo/topology.hpp"

namespace perfbench {

class SimRig : public Rig {
 public:
  monocle::Fleet& fleet() override { return *fleet_; }
  monocle::telemetry::TelemetryHub& hub() override { return hub_; }
  monocle::telemetry::CheckpointStore& store() override { return store_; }
  Coverage& coverage() override { return coverage_; }
  std::uint64_t coverage_target() override;
  [[nodiscard]] double steady_share() const override { return 0.6; }
  std::size_t round() override;
  UpdateOutcome update() override;
  bool drain() override;
  std::vector<std::uint64_t> prefix(Result& r) override;
  void warm() override;
  void final_checks(Result& r) override;
  void fill_trace(TraceInputs& in) override;

  static constexpr monocle::SwitchId kHub = 1;

 protected:
  /// A star of kLeaves leaf switches around the hub.
  explicit SimRig(std::uint64_t seed);

  /// Binds every switch's backend into the Fleet (through a TracedBackend
  /// whose send() spans count as kSend),
  /// starts the backends, runs `connect` (the channel handshakes),
  /// seeds the tables, prepares the Fleet and lets the catching rules reach
  /// the data plane.  The derived constructor calls this once its backends
  /// exist; the rig owns them from here on.
  void start(std::vector<std::unique_ptr<monocle::channel::SwitchBackend>>
                 backends,
             const std::function<void()>& connect);
  /// Stops and destroys the Fleet, then the backends.  Derived destructors
  /// call it first: the Fleet unbinds through the backends and the
  /// Multiplexer, so both must outlive it, and the backends in turn use the
  /// derived rig's transports.
  void teardown();

  /// Runs the simulation forward by `by` of simulated time.
  virtual void advance(monocle::netbase::SimTime by) = 0;

  monocle::topo::Topology topo_;
  monocle::switchsim::EventQueue eq_;
  CountingRuntime rt_{&eq_};
  monocle::switchsim::Network net_{&eq_};
  monocle::CatchPlan plan_;
  monocle::Multiplexer mux_{&net_};
  std::vector<monocle::SwitchId> dpids_;
  std::uint64_t sim_events_ = 0;

 private:
  void note_inject(std::span<const std::uint8_t> bytes);
  std::vector<std::uint64_t> signature() const;

  monocle::telemetry::TelemetryHub hub_;
  monocle::telemetry::CheckpointStore store_;
  std::vector<std::uint16_t> hub_ports_;
  std::vector<monocle::openflow::Rule> hub_rules_;  // the base table
  std::vector<monocle::openflow::Rule> live_;  // the stream's view of it
  UpdateCycle cycle_;
  std::uint64_t updates_sent_ = 0;
  Coverage coverage_;
  // Update bookkeeping (hooks fire on this thread).
  std::uint64_t confirms_ = 0;
  std::uint64_t update_failures_ = 0;
  std::uint64_t false_verdicts_ = 0;
  std::int64_t last_confirm_ = 0;
  std::vector<std::uint64_t> confirmed_cookies_;  // prefix signature
  std::vector<std::unique_ptr<monocle::channel::SwitchBackend>> backends_;
  std::vector<std::unique_ptr<TracedBackend>> traced_;
  std::unique_ptr<monocle::Fleet> fleet_;  // last: destroyed first
};

}  // namespace perfbench
