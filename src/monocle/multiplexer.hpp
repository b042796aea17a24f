// The Multiplexer proxy (paper §7).
//
// Monocle runs one Monitor per switch; the Multiplexer connects to all of
// them and owns the PacketOut/PacketIn plumbing: it injects probes by asking
// the *upstream* switch to emit the packet toward the probed switch (Figure
// 1), and routes caught probes (PacketIns carrying probe metadata) back to
// the Monitor that owns the probed switch.
//
// Scale-out fast path (fig11): at fleet scale every probe crosses this
// class twice (PacketOut out, PacketIn back), so the per-message glue is
// flat and allocation-free.  Registration (the cold path) interns each
// SwitchId into a dense SwitchOrdinal — an index into a shard vector — and
// the hot paths run on ordinals: no unordered_map hashing per message, a
// per-shard route cache for the upstream-injection decision, a per-shard
// scratch PacketOut message whose data buffer cycles through a per-shard
// netbase::BufferArena, and zero-copy PacketIn decoding
// (parse_packet_view + ProbeMetadataView).  fig11's map-routed,
// craft-per-probe baseline lives in the bench (bench/fastpath_harness.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "channel/switch_backend.hpp"
#include "monocle/monitor.hpp"
#include "monocle/runtime.hpp"
#include "netbase/buffer_arena.hpp"
#include "openflow/messages.hpp"

namespace monocle {

/// Dense per-Multiplexer index of a registered switch.  Assigned at first
/// registration (register_monitor / set_switch_sender / bind_backend /
/// intern) and stable for the Multiplexer's lifetime — teardown clears the
/// shard slot but keeps the ordinal reserved for the switch, so cached
/// ordinals (Monitor inject hooks, backend receivers) never dangle.
using SwitchOrdinal = std::uint32_t;
inline constexpr SwitchOrdinal kInvalidOrdinal =
    std::numeric_limits<SwitchOrdinal>::max();

/// The probe-packet switchboard shared by every Monitor (paper §7).
///
/// In the paper's pipeline the Multiplexer is the one component that talks
/// to ALL switches: probe *injection* needs a PacketOut at the switch
/// UPSTREAM of the probed one (so the probe enters on a real port), and
/// probe *collection* sees PacketIns at whatever neighbor's catching rule
/// fired.  on_packet_in decodes the probe metadata and hands the
/// observation to the Monitor owning the probed switch — this is the path
/// that turns raw PacketIns into the per-probe verdicts the Localizer and
/// the Fleet's cross-switch diagnosis consume.
///
/// Threading: registration (the cold path) is single-threaded, and so is
/// the default injection path — inject mutates the DELIVERING shard's
/// scratch message and arena (two probed switches routinely share one
/// upstream deliverer) and lazily resolves route caches.  The
/// multi-threaded round driver (round_engine.hpp) therefore runs the hot
/// paths in a concurrent-read mode: warm_routes() pre-resolves every route
/// so nothing resizes under readers, and each worker passes its own
/// InjectContext so the per-send scratch/arena state is worker-local
/// instead of per-DELIVERING-shard.  With those two in place, inject_at and
/// on_packet_in only read shard wiring (counters are relaxed atomics), and
/// any number of workers may inject concurrently — each for the shards it
/// owns.  Registration must still never overlap the concurrent phase.
class Multiplexer {
 public:
  using Sender = std::function<void(const openflow::Message&)>;

  /// Per-worker injection state for the multi-threaded round driver: the
  /// scratch PacketOut envelope and the data-buffer arena that
  /// single-threaded injection borrows from the delivering shard.  Those
  /// per-shard fields are exactly what two workers injecting through a
  /// shared upstream deliverer would race on; handing inject_at a
  /// worker-owned context makes the send path read-only on shard state.
  struct InjectContext {
    InjectContext();
    openflow::Message scratch;   ///< reusable PacketOut envelope
    netbase::BufferArena arena;  ///< recycles PacketOut data buffers
  };

  explicit Multiplexer(const NetworkView* view) : view_(view) {}

  /// Assigns (or returns) the dense ordinal of `sw` without registering
  /// anything — lets hosts capture the ordinal in inject hooks before the
  /// shard's Monitor exists.
  SwitchOrdinal intern(SwitchId sw);

  /// The ordinal of `sw`, or kInvalidOrdinal if it was never interned.
  [[nodiscard]] SwitchOrdinal ordinal_of(SwitchId sw) const;

  /// Registers the Monitor responsible for `sw`.
  SwitchOrdinal register_monitor(SwitchId sw, Monitor* monitor);

  /// Removes EVERYTHING registered for `sw` — monitor, sender and bound
  /// backend — so shard teardown can never leave a dangling backend pointer
  /// behind (regression: tests/scaleout_test.cpp).  The ordinal stays
  /// reserved; probes addressed to the switch that are still in flight are
  /// consumed and dropped by on_packet_in.
  void unregister_monitor(SwitchId sw);

  /// Registers the function that delivers control messages to switch `sw`
  /// (PacketOuts for probe injection).
  SwitchOrdinal set_switch_sender(SwitchId sw, Sender sender);

  /// Wires `backend` as the full control channel of `sw` — the standard
  /// plumbing every host (Testbed, Fleet, live_monitor) used to hand-roll:
  ///
  ///  * outbound: this Multiplexer's PacketOuts for `sw` go down the backend
  ///    (set_switch_sender);
  ///  * inbound: PacketIns carrying probe metadata peel off to on_packet_in;
  ///    everything else reaches `monitor` (or `fallback` when the switch is
  ///    unproxied, i.e. `monitor` is null);
  ///  * lifecycle: channel up/down transitions re-arm the Monitor after a
  ///    reconnect (Monitor::on_channel_state).
  ///
  /// The backend must outlive this registration; rebind (e.g. with a null
  /// monitor) or unregister_monitor on shard teardown.
  SwitchOrdinal bind_backend(SwitchId sw, channel::SwitchBackend& backend,
                             Monitor* monitor, Sender fallback = {});

  /// Injects `packet` so it enters `probed` on `in_port`: sends a PacketOut
  /// to the upstream peer behind that port.  Falls back to an OFPP_TABLE
  /// self-injection at the probed switch when there is no upstream peer.
  /// Returns false when no injection path exists — including when the
  /// delivering switch's bound backend is currently down (a PacketOut
  /// parked in a reconnect queue is not an injection; counting it as one
  /// would let silence-based negative confirmation succeed during an
  /// outage).  The packet bytes are borrowed for the duration of the call.
  bool inject(SwitchId probed, std::uint16_t in_port,
              std::span<const std::uint8_t> packet);

  /// Ordinal-addressed injection — the fleet fast path (hooks capture the
  /// ordinal at bind time; no per-probe id lookup at all).  `ctx` selects
  /// the scratch/arena the PacketOut is built in: null (single-threaded
  /// callers) borrows the delivering shard's own, a worker's InjectContext
  /// keeps the send path read-only on shard state (see the class comment).
  bool inject_at(SwitchOrdinal probed, std::uint16_t in_port,
                 std::span<const std::uint8_t> packet,
                 InjectContext* ctx = nullptr);

  /// Pre-resolves the route cache of every interned shard for every port of
  /// its switch, so the concurrent injection phase never hits the lazy
  /// resolve/resize path.  Call after registration settles (and again after
  /// any wiring change); the Fleet's prepare() does this when it runs a
  /// multi-worker engine.
  void warm_routes();

  /// Examines a PacketIn received from switch `from`.  If it carries probe
  /// metadata it is routed to the owning Monitor and consumed (returns
  /// true); otherwise the caller should pass it to the switch's own Monitor
  /// / controller path.
  bool on_packet_in(SwitchId from, const openflow::PacketIn& pi);

  /// Ordinal-addressed PacketIn examination (bound backends use this).
  bool on_packet_in_at(SwitchOrdinal from, const openflow::PacketIn& pi);

  /// Routes a controller-side FlowMod to the Monitor shard owning `sw`,
  /// where it becomes a TableDelta in that shard's versioned table (the one
  /// place updates enter the system).  Returns false when the switch is
  /// unproxied — the caller must deliver the message down the switch
  /// channel itself.
  bool route_flow_mod(SwitchId sw, const openflow::FlowMod& fm,
                      std::uint32_t xid = 0);

  [[nodiscard]] std::uint64_t packet_outs_sent() const {
    return packet_outs_.load(std::memory_order_relaxed);
  }
  /// Per-shard PacketOut count (0 for unknown switches).
  [[nodiscard]] std::uint64_t packet_outs_sent(SwitchId sw) const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  /// Cached upstream-injection decision for one (shard, in_port): who sends
  /// the PacketOut and with what action.  Resolved lazily from the
  /// NetworkView on first use, invalidated wholesale (generation bump) by
  /// any registration change — both cold paths.
  struct Route {
    std::uint32_t gen = 0;  ///< valid iff == routes_gen_
    SwitchOrdinal deliver = kInvalidOrdinal;
    std::uint16_t out_port = 0;  ///< upstream egress port toward the probed switch
    bool self_table = false;     ///< OFPP_TABLE self-injection fallback
    bool dead = false;           ///< no injection path exists
  };

  struct Shard {
    SwitchId sw = 0;
    Monitor* monitor = nullptr;
    Sender sender;
    channel::SwitchBackend* backend = nullptr;  // bound; null = plain sender
    /// Reusable PacketOut envelope: the variant alternative never changes,
    /// so per-send mutation touches only in_port/actions/data.
    openflow::Message scratch;
    netbase::BufferArena arena;   ///< recycles PacketOut data buffers
    std::vector<Route> routes;    ///< indexed by the probed shard's in_port
  };

  /// The hot per-shard fields, packed one cache line per shard and indexed
  /// by ordinal (parallel to shards_): everything the per-probe paths read
  /// — collection dispatch (monitor), liveness (backend), the resolved
  /// route array, and the PacketOut counter.  A 500-shard round walks this
  /// dense 64-byte-stride array instead of chasing a heap allocation per
  /// shard through the unique_ptr table, which is where the 500-shard
  /// throughput dip came from (BENCH_scaleout.json).  Cold fields (sender
  /// storage, scratch, arena, route storage) stay in Shard behind `cold`.
  struct alignas(64) HotSlot {
    Monitor* monitor = nullptr;
    channel::SwitchBackend* backend = nullptr;
    Shard* cold = nullptr;
    const Route* routes = nullptr;  ///< = cold->routes.data() (kept in sync)
    std::uint32_t route_count = 0;
    SwitchId sw = 0;
    /// Plain field bumped through relaxed std::atomic_ref: workers count
    /// without contention, readers sample tear-free.
    std::uint64_t packet_outs = 0;
  };
  static_assert(sizeof(HotSlot) == 64, "one cache line per shard");

  Shard* shard_at(SwitchOrdinal ord) {
    return ord < shards_.size() ? shards_[ord].get() : nullptr;
  }
  const Shard* shard_at(SwitchOrdinal ord) const {
    return ord < shards_.size() ? shards_[ord].get() : nullptr;
  }

  /// Registration epoch for route caches: bumped whenever shard wiring
  /// changes so every cached Route re-resolves lazily.
  void invalidate_routes() { ++routes_gen_; }

  /// Resolves the injection route for shard `ord` / `in_port`, and keeps
  /// the hot slot's route-array view in sync when the cache resized.
  Route& route_for(SwitchOrdinal ord, std::uint16_t in_port);

  /// Sends `packet` as a PacketOut through the delivering shard's sender.
  /// The envelope and data buffer come from `ctx` when given (worker-local,
  /// concurrent-safe) or the delivering shard otherwise.  `in_port`/
  /// `out_port` per the resolved route.
  bool send_packet_out(HotSlot& deliver, std::uint16_t po_in_port,
                       std::uint16_t action_port,
                       std::span<const std::uint8_t> packet,
                       InjectContext* ctx);

  /// Re-syncs hot_[ord] from shards_[ord] after a registration change (cold
  /// path; the hot paths never write slot wiring).
  void sync_hot(SwitchOrdinal ord);

  const NetworkView* view_;
  std::vector<std::unique_ptr<Shard>> shards_;  // by ordinal
  std::vector<HotSlot> hot_;                    // by ordinal, parallel
  /// Dense SwitchId -> ordinal index for the id-addressed entry points
  /// (kInvalidOrdinal holes).  Ids beyond kMaxDenseId fall back to the map.
  static constexpr SwitchId kMaxDenseId = 1 << 20;
  std::vector<SwitchOrdinal> ordinal_index_;
  /// Cold-path registry (registration, huge sparse ids).
  std::unordered_map<SwitchId, SwitchOrdinal> ordinal_map_;
  std::uint32_t routes_gen_ = 1;
  std::atomic<std::uint64_t> packet_outs_{0};
};

}  // namespace monocle
