#include "monocle/multiplexer.hpp"

#include <atomic>

#include "netbase/packet_crafter.hpp"
#include "netbase/probe_metadata.hpp"

namespace monocle {

Multiplexer::InjectContext::InjectContext() {
  scratch = openflow::make_message(0, openflow::PacketOut{});
  // One warm buffer so even a worker's very first probe of the concurrent
  // phase stays allocation-free (probe frames are small).
  arena.prewarm(1, 256);
}

// ---------------------------------------------------------------------------
// Registration (cold path): ordinal interning + shard wiring
// ---------------------------------------------------------------------------

SwitchOrdinal Multiplexer::intern(SwitchId sw) {
  if (const SwitchOrdinal existing = ordinal_of(sw);
      existing != kInvalidOrdinal) {
    return existing;
  }
  const auto ord = static_cast<SwitchOrdinal>(shards_.size());
  auto shard = std::make_unique<Shard>();
  shard->sw = sw;
  shard->scratch = openflow::make_message(0, openflow::PacketOut{});
  shards_.push_back(std::move(shard));
  hot_.emplace_back();
  hot_.back().sw = sw;
  hot_.back().cold = shards_.back().get();
  ordinal_map_[sw] = ord;
  if (sw < kMaxDenseId) {
    if (ordinal_index_.size() <= sw) {
      ordinal_index_.resize(sw + 1, kInvalidOrdinal);
    }
    ordinal_index_[sw] = ord;
  }
  // hot_ may have reallocated: every slot's cold pointer is still valid
  // (shards_ holds unique_ptrs), but re-sync nothing else here — slots are
  // value-copied and self-contained.
  // A new switch can turn previously-dead injection routes live.
  invalidate_routes();
  return ord;
}

SwitchOrdinal Multiplexer::ordinal_of(SwitchId sw) const {
  if (sw < ordinal_index_.size()) return ordinal_index_[sw];
  if (sw >= kMaxDenseId) {
    const auto it = ordinal_map_.find(sw);
    if (it != ordinal_map_.end()) return it->second;
  }
  return kInvalidOrdinal;
}

void Multiplexer::sync_hot(SwitchOrdinal ord) {
  if (ord >= hot_.size()) return;
  Shard& shard = *shards_[ord];
  HotSlot& hot = hot_[ord];
  hot.monitor = shard.monitor;
  hot.backend = shard.backend;
  hot.routes = shard.routes.data();
  hot.route_count = static_cast<std::uint32_t>(shard.routes.size());
  // packet_outs intentionally survives rewiring — it is a lifetime counter
  // for the ordinal, matching the pre-hot-slot per-shard atomic.
}

SwitchOrdinal Multiplexer::register_monitor(SwitchId sw, Monitor* monitor) {
  const SwitchOrdinal ord = intern(sw);
  shards_[ord]->monitor = monitor;
  sync_hot(ord);
  invalidate_routes();
  return ord;
}

void Multiplexer::unregister_monitor(SwitchId sw) {
  const SwitchOrdinal ord = ordinal_of(sw);
  Shard* shard = shard_at(ord);
  if (shard == nullptr) return;
  // Erase ALL of the shard's wiring, not just the monitor: a sender or
  // backend left behind after teardown is a dangling pointer the next
  // inject would call into (the pre-fig11 bug).  A bound backend also
  // holds receiver/state-handler closures capturing the Monitor* — reset
  // them too, so destroying the Monitor right after this call is safe;
  // messages the backend delivers before a new bind_backend are dropped.
  // The ordinal itself stays reserved so cached ordinals keep resolving to
  // this (now inert) slot.
  if (shard->backend != nullptr) {
    shard->backend->set_receiver([](const openflow::Message&) {});
    shard->backend->set_state_handler([](bool) {});
  }
  shard->monitor = nullptr;
  shard->sender = nullptr;
  shard->backend = nullptr;
  shard->routes.clear();
  sync_hot(ord);
  invalidate_routes();
}

SwitchOrdinal Multiplexer::set_switch_sender(SwitchId sw, Sender sender) {
  const SwitchOrdinal ord = intern(sw);
  shards_[ord]->sender = std::move(sender);
  sync_hot(ord);
  invalidate_routes();
  return ord;
}

SwitchOrdinal Multiplexer::bind_backend(SwitchId sw,
                                        channel::SwitchBackend& backend,
                                        Monitor* monitor, Sender fallback) {
  const SwitchOrdinal ord = set_switch_sender(
      sw, [&backend](const openflow::Message& m) { backend.send(m); });
  shards_[ord]->backend = &backend;  // inject() consults its up() state
  sync_hot(ord);
  backend.set_receiver([this, ord, monitor, fallback = std::move(fallback)](
                           const openflow::Message& m) {
    if (m.is<openflow::PacketIn>() &&
        on_packet_in_at(ord, m.as<openflow::PacketIn>())) {
      return;  // consumed as a probe
    }
    if (monitor != nullptr) {
      monitor->on_switch_message(m);
    } else if (fallback) {
      fallback(m);
    }
  });
  backend.set_state_handler([monitor](bool up) {
    if (monitor != nullptr) monitor->on_channel_state(up);
  });
  // Seed the Monitor with the backend's CURRENT state: a channel backend
  // bound before its first handshake starts down, so steady probing holds
  // off instead of failing rules into a channel that was never up.
  if (monitor != nullptr) monitor->on_channel_state(backend.up());
  return ord;
}

std::uint64_t Multiplexer::packet_outs_sent(SwitchId sw) const {
  const SwitchOrdinal ord = ordinal_of(sw);
  if (ord >= hot_.size()) return 0;
  // atomic_ref<const T> is C++26; the const_cast is sound — the referenced
  // object is never actually const.
  return std::atomic_ref<std::uint64_t>(
             const_cast<std::uint64_t&>(hot_[ord].packet_outs))
      .load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Injection fast path
// ---------------------------------------------------------------------------

Multiplexer::Route& Multiplexer::route_for(SwitchOrdinal ord,
                                           std::uint16_t in_port) {
  Shard& shard = *shards_[ord];
  if (shard.routes.size() <= in_port) {
    shard.routes.resize(in_port + 1);
    // The resize may have moved the array the hot slot points at.
    hot_[ord].routes = shard.routes.data();
    hot_[ord].route_count = static_cast<std::uint32_t>(shard.routes.size());
  }
  Route& route = shard.routes[in_port];
  if (route.gen == routes_gen_) return route;
  // (Re)resolve — cold: first use of this ingress port, or the shard wiring
  // changed since.  The peer's EXISTENCE picks the branch; a missing sender
  // on the chosen branch means no injection path (never a silent fallback
  // to the other branch).
  route = Route{};
  route.gen = routes_gen_;
  const auto peer = view_->peer(shard.sw, in_port);
  if (peer) {
    const SwitchOrdinal up = ordinal_of(peer->sw);
    const Shard* upstream = shard_at(up);
    if (upstream == nullptr || !upstream->sender) {
      route.dead = true;
    } else {
      route.deliver = up;
      route.out_port = peer->port;
    }
  } else if (!shard.sender) {
    route.dead = true;
  } else {
    route.deliver = ord;
    route.self_table = true;
  }
  return route;
}

void Multiplexer::warm_routes() {
  for (SwitchOrdinal ord = 0; ord < shards_.size(); ++ord) {
    for (const std::uint16_t port : view_->ports(shards_[ord]->sw)) {
      route_for(ord, port);
    }
  }
}

bool Multiplexer::send_packet_out(HotSlot& deliver, std::uint16_t po_in_port,
                                  std::uint16_t action_port,
                                  std::span<const std::uint8_t> packet,
                                  InjectContext* ctx) {
  Shard& cold = *deliver.cold;
  if (!cold.sender || (deliver.backend != nullptr && !deliver.backend->up())) {
    return false;
  }
  // The envelope/arena pair: worker-local when a context is passed (two
  // workers may deliver through the same upstream shard), the delivering
  // shard's own in single-threaded mode.
  openflow::Message& scratch = ctx != nullptr ? ctx->scratch : cold.scratch;
  netbase::BufferArena& arena = ctx != nullptr ? ctx->arena : cold.arena;
  auto& po = scratch.as<openflow::PacketOut>();
  // The data buffer cycles through the arena: acquire -> fill -> send ->
  // release keeps one cache-warm allocation alive instead of a malloc/free
  // pair per probe.
  auto buf = arena.acquire(packet.size());
  buf.assign(packet.begin(), packet.end());
  po.data = std::move(buf);
  po.buffer_id = 0xFFFFFFFF;
  po.in_port = po_in_port;
  po.actions.resize(1);
  openflow::Action& action = po.actions.front();
  action.type = openflow::Action::Type::kOutput;
  action.port = action_port;
  std::atomic_ref<std::uint64_t>(deliver.packet_outs)
      .fetch_add(1, std::memory_order_relaxed);
  packet_outs_.fetch_add(1, std::memory_order_relaxed);
  cold.sender(scratch);
  arena.release(std::move(po.data));
  po.data.clear();  // moved-from: leave the scratch message well-defined
  return true;
}

bool Multiplexer::inject_at(SwitchOrdinal probed, std::uint16_t in_port,
                            std::span<const std::uint8_t> packet,
                            InjectContext* ctx) {
  if (probed >= hot_.size()) return false;
  HotSlot& hot = hot_[probed];
  const Route* route;
  if (in_port < hot.route_count && hot.routes[in_port].gen == routes_gen_)
      [[likely]] {
    // Steady state: one dense-array read, no resize, no resolve — the only
    // path the concurrent phase takes after warm_routes().
    route = &hot.routes[in_port];
  } else {
    route = &route_for(probed, in_port);
  }
  if (route->dead) return false;
  if (route->deliver >= hot_.size()) return false;
  HotSlot& deliver = hot_[route->deliver];
  if (route->self_table) {
    // Fallback: OFPP_TABLE self-injection at the probed switch with the
    // desired in_port (classic OpenFlow 1.0 trick).
    return send_packet_out(deliver, in_port, openflow::kPortTable, packet,
                           ctx);
  }
  // Upstream injection (Figure 1): the upstream switch emits the probe on
  // the port facing the probed switch; PacketOut bypasses its flow table.
  return send_packet_out(deliver, openflow::kPortNone, route->out_port,
                         packet, ctx);
}

bool Multiplexer::inject(SwitchId probed, std::uint16_t in_port,
                         std::span<const std::uint8_t> packet) {
  SwitchOrdinal ord = ordinal_of(probed);
  // A probe can target a switch nothing was registered for (its upstream
  // neighbor does the PacketOut); give it a route-cache slot on first use.
  if (ord == kInvalidOrdinal) ord = intern(probed);
  return inject_at(ord, in_port, packet);
}

// ---------------------------------------------------------------------------
// Collection fast path
// ---------------------------------------------------------------------------

bool Multiplexer::on_packet_in(SwitchId from, const openflow::PacketIn& pi) {
  // Zero-copy decode: header and payload stay views into pi.data, and the
  // metadata fields are read straight out of the payload bytes.  Checksum
  // validation is skipped — classification never consults it, and the two
  // extra passes per PacketIn are measurable at fleet scale.
  const auto view = netbase::parse_packet_view(pi.data,
                                               /*validate_checksums=*/false);
  if (!view) return false;
  const auto meta = netbase::ProbeMetadataView::parse(view->payload);
  if (!meta) return false;  // not a probe — production PacketIn
  const SwitchOrdinal ord = ordinal_of(meta->switch_id());
  if (ord >= hot_.size() || hot_[ord].monitor == nullptr) {
    return true;  // probe for an unmanaged switch: consumed and dropped
  }
  hot_[ord].monitor->on_probe_caught(from, pi.in_port, *view,
                                     meta->materialize());
  return true;
}

bool Multiplexer::on_packet_in_at(SwitchOrdinal from,
                                  const openflow::PacketIn& pi) {
  const Shard* shard = shard_at(from);
  return on_packet_in(shard == nullptr ? 0 : shard->sw, pi);
}

// ---------------------------------------------------------------------------
// FlowMod routing
// ---------------------------------------------------------------------------

bool Multiplexer::route_flow_mod(SwitchId sw, const openflow::FlowMod& fm,
                                 std::uint32_t xid) {
  const Shard* shard = shard_at(ordinal_of(sw));
  if (shard == nullptr || shard->monitor == nullptr) return false;
  shard->monitor->on_controller_message(openflow::make_message(xid, fm));
  return true;
}

}  // namespace monocle
