#include "closed_loop.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/checkpoint_store.hpp"
#include "telemetry/hub.hpp"

namespace perfbench {

namespace {

// Telemetry export period: one TelemetryHub::poll() plus a Prometheus
// render per this much wall time, as an export thread on a timer would.
constexpr std::int64_t kPollPeriodNs = 50'000'000;

// probes_per_s is the rate the program sustains in nine windows of ten:
// the 10th percentile of its rate over windows of this much wall time.
// On a shared host the neighbours' load slows the process for seconds at a
// time; the slowed windows settle near one level, while the faster ones
// (and with them the mean or median) follow the neighbours.
constexpr std::int64_t kRateWindowNs = 200'000'000;
constexpr double kRatePercentile = 10.0;

/// Per-window event counts -> events per second of each window.
class WindowedRate {
 public:
  explicit WindowedRate(std::int64_t start) : start_(start) {}
  void add(std::uint64_t events, std::int64_t now) {
    events_ += events;
    if (now - start_ >= kRateWindowNs) {
      rates_.push_back(static_cast<double>(events_) * 1e9 /
                       static_cast<double>(now - start_));
      events_ = 0;
      start_ = now;
    }
  }
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }

 private:
  std::int64_t start_;
  std::uint64_t events_ = 0;
  std::vector<double> rates_;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;

// Percentiles are reported only where a run leaves at least ten samples
// beyond them; a run with fewer fails (the workloads are sized for that at
// the benchmark's run length; see spec.json).
constexpr std::size_t kMinSweepSamples = 100;   // p90
constexpr std::size_t kMinUpdateSamples = 100;  // p90
constexpr std::size_t kMinRateWindows = 100;    // p10 of window rates

// Traced build: start_round's wall time split into the Monitors' bursts
// (their burst windows) and the Fleet's own work around them.
struct RoundAcc {
  std::int64_t monitor_self_ns = 0;  ///< burst windows minus boundaries
  std::int64_t burst_ns = 0;         ///< burst windows
};
RoundAcc g_rounds;

/// Fails the run when `what` has fewer than `need` samples (an empty set
/// included: its median is never reported as 0).
bool enough(Result& r, const char* what, std::size_t have, std::size_t need) {
  if (have >= need) return true;
  r.fail(std::string("only ") + std::to_string(have) + " " + what +
             " (a run needs " + std::to_string(need) + ")",
         need - have);
  return false;
}

void poll_telemetry(Rig& rig) {
  Span span(Layer::kTelemetry);
  rig.hub().poll();
  rig.fleet().publish_telemetry();
  static std::size_t rendered = 0;  // keeps the render from being elided
  rendered += rig.hub().exporter().render().size();
}

std::uint64_t ring_drops(Rig& rig) {
  std::uint64_t n = 0;
  for (const auto& [sw, mon] : rig.fleet().shards()) {
    n += rig.hub().ring(sw)->dropped();
  }
  return n;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::uint16_t UpdateCycle::other_port(std::uint16_t port,
                                      const std::vector<std::uint16_t>& ports) {
  std::uint16_t out = port;
  while (out == port && ports.size() > 1) {
    out = ports[std::uniform_int_distribution<std::size_t>(
        0, ports.size() - 1)(rng_)];
  }
  return out;
}

monocle::openflow::FlowMod UpdateCycle::next(
    const std::vector<monocle::openflow::Rule>& rules,
    const std::vector<std::uint16_t>& ports) {
  namespace of = monocle::openflow;
  const auto pick = [&] {
    return rules[std::uniform_int_distribution<std::size_t>(
        0, rules.size() - 1)(rng_)];
  };
  of::FlowMod fm;
  switch (step_) {
    case 0:  // move a route to another port
      target_ = pick();
      fm.command = of::FlowModCommand::kModifyStrict;
      fm.actions = {of::Action::output(
          other_port(target_.actions.front().port, ports))};
      break;
    case 1:  // ... and back
      fm.command = of::FlowModCommand::kModifyStrict;
      fm.actions = target_.actions;
      break;
    case 2: {  // add a fresh route (10.128.0.0/9 holds no base route)
      target_ = of::Rule{};
      target_.priority = 10;
      target_.cookie = kFreshCookie + fresh_;
      target_.match.set_exact(monocle::netbase::Field::EthType,
                              monocle::netbase::kEthTypeIpv4);
      target_.match.set_prefix(monocle::netbase::Field::IpDst,
                               0x0A800000u + (fresh_++ & 0x7FFFFFu), 32);
      target_.actions = {of::Action::output(ports[
          std::uniform_int_distribution<std::size_t>(0, ports.size() - 1)(
              rng_)])};
      fm.command = of::FlowModCommand::kAdd;
      fm.actions = target_.actions;
      break;
    }
    case 3:  // ... and delete it
      fm.command = of::FlowModCommand::kDeleteStrict;
      break;
    case 4:  // delete a route
      target_ = pick();
      fm.command = of::FlowModCommand::kDeleteStrict;
      break;
    default:  // ... and add it back
      fm.command = of::FlowModCommand::kAdd;
      fm.actions = target_.actions;
      break;
  }
  fm.match = target_.match;
  fm.priority = target_.priority;
  fm.cookie = target_.cookie;
  step_ = (step_ + 1) % 6;
  return fm;
}

void apply_flow_mod(std::vector<monocle::openflow::Rule>& rules,
                    const monocle::openflow::FlowMod& fm) {
  namespace of = monocle::openflow;
  const auto slot = std::find_if(rules.begin(), rules.end(),
                                 [&](const of::Rule& r) {
                                   return r.priority == fm.priority &&
                                          r.match == fm.match;
                                 });
  switch (fm.command) {
    case of::FlowModCommand::kDelete:
    case of::FlowModCommand::kDeleteStrict:
      if (slot != rules.end()) rules.erase(slot);
      break;
    default:
      if (slot != rules.end()) {
        *slot = fm.rule();
      } else {
        rules.push_back(fm.rule());
      }
      break;
  }
}

monocle::MonitorStats sum_stats(const monocle::Fleet& fleet) {
  monocle::MonitorStats t;
  for (const auto& [sw, mon] : fleet.shards()) {
    const monocle::MonitorStats& s = mon->stats();
    t.probes_injected += s.probes_injected;
    t.probes_caught += s.probes_caught;
    t.stale_probes += s.stale_probes;
    t.probe_generations += s.probe_generations;
    t.updates_confirmed += s.updates_confirmed;
    t.updates_queued += s.updates_queued;
    t.probe_cache_hits += s.probe_cache_hits;
    t.probe_cache_misses += s.probe_cache_misses;
    t.probe_invalidations += s.probe_invalidations;
    t.delta_regens += s.delta_regens;
    t.scratch_regens += s.scratch_regens;
    t.stale_epoch_drops += s.stale_epoch_drops;
    t.probe_retries += s.probe_retries;
    t.suspects_raised += s.suspects_raised;
    t.generation_time += s.generation_time;
    t.solver_live_words += s.solver_live_words;
    t.session_rebuilds += s.session_rebuilds;
  }
  return t;
}

std::size_t start_round(monocle::Fleet& fleet) {
  if constexpr (kTraced) trace::arm_window();
  std::size_t injected = 0;
  {
    Span span(Layer::kRound);
    injected = fleet.start_round();
  }
  if constexpr (kTraced) {
    const trace::Window w = trace::disarm_window();
    g_rounds.monitor_self_ns +=
        std::max<std::int64_t>(0, w.span_ns - w.child_ns);
    g_rounds.burst_ns += w.span_ns;
  }
  return injected;
}

Result run_workload(RigFactory make, int verifying,
                    const std::vector<std::uint64_t>* reference) {
  Result r;
  const Options& o = options();

  // --- setups: deterministic prefixes, then the measured instance --------
  // The first `verifying` instances run the seed's deterministic prefix;
  // the last one, measured, is only warmed (rounds, no updates), so every
  // seed's measured phases start from the same state.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> ref_sig;
  std::unique_ptr<Rig> rig;
  Totals setup_totals{};
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // teardown of the previous instance is not set-up time
    if constexpr (kTraced) trace::reset();
    const std::int64_t t0 = now_ns();
    rig = make(o.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if constexpr (kTraced) setup_totals = trace::sum();
    if (i >= verifying) continue;
    const std::vector<std::uint64_t> sig = rig->prefix(r);
    if (reference != nullptr) {
      r.check(sig == *reference,
              "classifications and confirmations differ from the in-process "
              "run of the same seed");
    }
    if (i == 0) {
      ref_sig = sig;
    } else {
      r.check(sig == ref_sig,
              "classification signature differs between two runs of the "
              "same seed");
    }
  }
  rig->warm();

  // --- measured phases --------------------------------------------------
  monocle::Fleet& fleet = rig->fleet();
  const monocle::MonitorStats s0 = sum_stats(fleet);
  const std::uint64_t journal0 = rig->hub().journal().appended();
  const std::uint64_t ckpt0 = rig->store().appended();
  const std::uint64_t drops0 = ring_drops(*rig);
  TraceInputs before;
  rig->fill_trace(before);
  g_rounds = RoundAcc{};
  if constexpr (kTraced) trace::reset();

  const std::int64_t total_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  const std::int64_t steady_ns =
      static_cast<std::int64_t>(static_cast<double>(total_ns) *
                                rig->steady_share());

  // Steady phase.
  Coverage& cov = rig->coverage();
  const std::uint64_t target = rig->coverage_target();
  cov.begin(target);
  std::vector<double> sweeps;
  std::uint64_t rounds = 0;
  bool first_sweep = true;  // starts mid-rotation: no sample
  const std::int64_t a0 = now_ns();
  std::int64_t last_cover = a0;
  std::int64_t next_poll = a0 + kPollPeriodNs;
  std::int64_t now = a0;
  WindowedRate probe_rate(a0);
  while (now - a0 < steady_ns) {
    const std::size_t injected = rig->round();
    ++rounds;
    Span span(Layer::kBench);
    now = now_ns();
    probe_rate.add(injected, now);
    if (cov.complete()) {
      if (!first_sweep) {
        sweeps.push_back(static_cast<double>(now - last_cover) / 1e6);
      }
      first_sweep = false;
      last_cover = now;
      cov.next_sweep();
    }
    if (now >= next_poll) {
      poll_telemetry(*rig);
      next_poll += kPollPeriodNs;
    }
  }
  cov.stop();

  // Update phase.
  std::vector<double> update_ms;
  std::vector<double> flow_mod_us;
  std::uint64_t sent = 0;
  std::uint64_t confirmed = 0;
  const std::int64_t b0 = now_ns();
  next_poll = b0 + kPollPeriodNs;
  now = b0;
  while (now - b0 < total_ns - steady_ns) {
    const UpdateOutcome u = rig->update();
    ++sent;
    Span span(Layer::kBench);
    if (u.confirmed) {
      ++confirmed;
      update_ms.push_back(static_cast<double>(u.latency_ns) / 1e6);
    }
    const std::int64_t outside_sat = u.call_ns - u.call_gen_ns;
    flow_mod_us.push_back(
        static_cast<double>(std::max<std::int64_t>(0, outside_sat)) / 1e3);
    now = now_ns();
    if (now >= next_poll) {
      poll_telemetry(*rig);
      next_poll += kPollPeriodNs;
    }
  }
  const Totals totals = kTraced ? trace::sum() : Totals{};

  // --- drain + checks ---------------------------------------------------
  const bool drained = rig->drain();
  const std::uint64_t unresolved = fleet.outstanding_probes();
  if (!drained || unresolved > 0) {
    r.fail(std::to_string(unresolved) + " probes left unresolved",
           std::max<std::uint64_t>(1, unresolved));
  }
  if (confirmed != sent) {
    r.fail(std::to_string(sent - confirmed) +
               " updates not confirmed (or given up)",
           sent - confirmed);
  }
  rig->final_checks(r);
  for (const auto& [sw, mon] : fleet.shards()) mon->refresh_solver_stats();
  const monocle::MonitorStats s1 = sum_stats(fleet);
  const std::uint64_t injected = s1.probes_injected - s0.probes_injected;
  r.attempted += injected + sent;

  // --- end-to-end metrics -----------------------------------------------
  // A sample set too small for its statistic fails the run and is left out.
  auto put = [&r](const char* name, double v, const char* unit) {
    r.metrics[name] = {v, unit};
  };
  put("setup_s", median(setup_s), "s");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  std::vector<double> rates = probe_rate.rates();
  if (enough(r, "probe rate windows", rates.size(), kMinRateWindows)) {
    put("probes_per_s", percentile(rates, kRatePercentile), "1/s");
  }
  if (enough(r, ("full coverages of " + std::to_string(target) +
                 " rules in the steady phase").c_str(),
             sweeps.size(), kMinSweepSamples)) {
    put("sweep_ms_p90", percentile(sweeps, 90.0), "ms");
  }
  if (enough(r, "confirmed updates", update_ms.size(), kMinUpdateSamples)) {
    put("update_ms_p90", percentile(update_ms, 90.0), "ms");
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "samples: %zu setups, %llu rounds, %zu full coverages, %llu "
                "updates, %llu probes",
                setup_s.size(), static_cast<unsigned long long>(rounds),
                sweeps.size(), static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(injected));
  r.notes.push_back(line);

  if constexpr (!kTraced) return r;

  // --- per-layer metrics (traced build) ---------------------------------
  TraceInputs in;
  rig->fill_trace(in);
  in.timer_ops -= before.timer_ops;
  in.frames -= before.frames;
  in.pumps -= before.pumps;
  in.idle_pump_ns -= before.idle_pump_ns;
  in.sim_events -= before.sim_events;

  auto layer = [&r](const char* name, double v, const char* unit) {
    r.layer[name] = {v, unit};
  };
  auto at = [&totals](Layer l) -> const LayerTotals& {
    return totals[static_cast<std::size_t>(l)];
  };
  auto setup_ms = [&setup_totals](Layer l) {
    return static_cast<double>(
               setup_totals[static_cast<std::size_t>(l)].total_ns) /
           1e6;
  };
  const double probes_d =
      static_cast<double>(std::max<std::uint64_t>(1, injected));
  auto per_probe = [probes_d](double v) { return v / probes_d; };
  auto self_per_call = [&at](Layer l) {
    return ratio(static_cast<double>(at(l).self_ns),
                 static_cast<double>(at(l).count));
  };
  auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };

  layer("schedule.build_ms", setup_ms(Layer::kSchedule), "ms");
  layer("probe_batch.warmup_ms", setup_ms(Layer::kPrepare), "ms");
  const double gen_ms = static_cast<double>(
                            (s1.generation_time - s0.generation_time).count()) /
                        1e6;
  layer("probe_batch.gen_ms", gen_ms, "ms");
  layer("probe_batch.us_per_rule",
        ratio(gen_ms * 1e3, d(s1.probe_generations, s0.probe_generations)),
        "us");
  const double hits = d(s1.probe_cache_hits, s0.probe_cache_hits);
  layer("probe_batch.cache_hit_ratio",
        ratio(hits, hits + d(s1.probe_cache_misses, s0.probe_cache_misses)),
        "ratio");
  const double delta_regens = d(s1.delta_regens, s0.delta_regens);
  layer("probe_batch.delta_regen_share",
        ratio(delta_regens,
              delta_regens + d(s1.scratch_regens, s0.scratch_regens)),
        "ratio");
  layer("probe_batch.session_rebuilds",
        d(s1.session_rebuilds, s0.session_rebuilds), "count");
  layer("sat.live_words", static_cast<double>(s1.solver_live_words), "count");
  layer("monitor.flow_mod_us_p50", percentile(flow_mod_us, 50.0), "us");
  layer("monitor.flow_mod_us_p99", percentile(flow_mod_us, 99.0), "us");
  layer("openflow.invalidations_per_update",
        ratio(d(s1.probe_invalidations, s0.probe_invalidations),
              static_cast<double>(sent)),
        "count");
  layer("monitor.updates_queued", d(s1.updates_queued, s0.updates_queued),
        "count");
  layer("multiplexer.inject_ns_per_probe", self_per_call(Layer::kInject),
        "ns");
  layer("multiplexer.packet_in_ns_per_probe", self_per_call(Layer::kPacketIn),
        "ns");
  layer("monitor.self_ns_per_probe",
        per_probe(static_cast<double>(g_rounds.monitor_self_ns)), "ns");
  layer("monitor.resolved_ratio",
        per_probe(d(s1.probes_caught, s0.probes_caught)), "ratio");
  layer("monitor.retries", d(s1.probe_retries, s0.probe_retries), "count");
  layer("monitor.stale_epoch_drops",
        d(s1.stale_epoch_drops, s0.stale_epoch_drops), "count");
  layer("monitor.suspects_raised", d(s1.suspects_raised, s0.suspects_raised),
        "count");
  layer("runtime.timers_per_probe",
        per_probe(static_cast<double>(in.timer_ops)), "count");
  layer("runtime.ns_per_timer",
        ratio(static_cast<double>(at(Layer::kRuntime).total_ns),
              static_cast<double>(at(Layer::kRuntime).count)),
        "ns");
  layer("fleet.self_ms_per_round",
        ratio(static_cast<double>(at(Layer::kRound).total_ns -
                                  g_rounds.burst_ns) /
                  1e6,
              static_cast<double>(at(Layer::kRound).count)),
        "ms");
  layer("telemetry.poll_ms",
        ratio(static_cast<double>(at(Layer::kTelemetry).total_ns) / 1e6,
              static_cast<double>(at(Layer::kTelemetry).count)),
        "ms");
  layer("telemetry.journal_records",
        d(rig->hub().journal().appended(), journal0), "count");
  layer("telemetry.ring_drops", d(ring_drops(*rig), drops0), "count");
  layer("telemetry.checkpoints", d(rig->store().appended(), ckpt0), "count");
  layer("channel.self_ns_per_probe",
        per_probe(static_cast<double>(at(Layer::kPumpWait).self_ns +
                                      at(Layer::kSend).self_ns)),
        "ns");
  layer("channel.wait_ms", static_cast<double>(in.idle_pump_ns) / 1e6, "ms");
  layer("channel.frames_per_probe", per_probe(static_cast<double>(in.frames)),
        "count");
  layer("channel.pumps_per_probe", per_probe(static_cast<double>(in.pumps)),
        "count");
  layer("monitor.allocs_per_probe",
        per_probe(static_cast<double>(at(Layer::kRound).self_allocs)),
        "count");
  layer("multiplexer.allocs_per_probe",
        per_probe(static_cast<double>(at(Layer::kInject).self_allocs +
                                      at(Layer::kPacketIn).self_allocs)),
        "count");
  layer("runtime.allocs_per_probe",
        per_probe(static_cast<double>(at(Layer::kRuntime).self_allocs)),
        "count");
  layer("channel.allocs_per_probe",
        per_probe(static_cast<double>(at(Layer::kPumpWait).self_allocs +
                                      at(Layer::kSend).self_allocs)),
        "count");
  layer("switchsim.self_ms",
        static_cast<double>(at(Layer::kEventQueue).self_ns +
                            at(Layer::kSwitchSide).self_ns) /
            1e6,
        "ms");
  layer("switchsim.events", static_cast<double>(in.sim_events), "count");

  std::int64_t all_self = 0;
  std::uint64_t spans = 0;
  for (const LayerTotals& lt : totals) {
    all_self += lt.self_ns;
    spans += lt.count;
  }
  const std::int64_t harness = at(Layer::kBench).self_ns +
                               at(Layer::kLoopback).self_ns +
                               at(Layer::kLockstep).self_ns;
  layer("bench.harness_share",
        ratio(static_cast<double>(harness), static_cast<double>(all_self)),
        "ratio");
  layer("bench.trace_overhead_share",
        ratio(static_cast<double>(spans) * trace::span_cost_ns(),
              static_cast<double>(all_self)),
        "ratio");
  return r;
}

}  // namespace perfbench
