// Evidence-accumulated network localization (ISSUE 6).
//
// localize_network() is a boolean pass: one snapshot of per-switch failed
// sets in, one diagnosis out.  Under probe loss, flapping links and active
// churn a single snapshot lies — a lost probe train paints a healthy rule
// failed for one pass, a flap window paints a healthy link dead for a few.
// NetworkEvidence turns the boolean pipeline into a filter over time:
//
//  * every observe() pass runs localize_network() and ADDS confidence to
//    each suspect it names (corroborated links earn more than one-sided
//    ones, switch-level patterns more than isolated rules);
//  * suspicion that stops being re-observed DECAYS exponentially (half-life
//    in options) and is forgotten below a floor — a transient blip never
//    reaches the confirmation bar;
//  * diagnosis() publishes only suspects that crossed the confidence bar,
//    were seen in at least min_sightings distinct passes, AND have
//    persisted for min_age — the debounce that keeps one flap window from
//    paging an operator, while a persistently flapping link still
//    accumulates its way to a confirmed diagnosis.
//
// This is the Fleet's only published localization path (fleet.hpp): the
// first alarm arms it after Config::localize_debounce, and it re-observes
// every Config::evidence_interval while anything stays failed or suspect.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <tuple>

#include "monocle/localizer.hpp"
#include "netbase/time.hpp"

namespace monocle {

/// The accumulator is the robustness path, so its localizer defaults differ
/// from the single-pass ones:
///  * the structural contamination filter is ON (localizer.hpp) —
///    collateral suspicion from probes whose ingress path crossed the real
///    fault is flagged at the source and adjudicated here;
///  * the per-pass group threshold drops to 0.5 — a gray link fought by the
///    K-of-N retry machinery keeps its egress groups hovering around half
///    failed (probes heal almost as fast as they die), which a single 0.8
///    pass never sees but repeated half-failed sightings accumulate into a
///    confirmed diagnosis.  The confidence bar, min_sightings and the
///    contamination filter absorb the extra per-pass leads this admits.
[[nodiscard]] constexpr NetworkLocalizerOptions evidence_default_localizer() {
  NetworkLocalizerOptions options;
  options.contamination_filter = true;
  options.per_switch.link_threshold = 0.5;
  return options;
}

struct EvidenceOptions {
  NetworkLocalizerOptions localizer = evidence_default_localizer();
  /// Accumulated confidence a suspect needs before diagnosis() reports it.
  double confirm_confidence = 2.0;
  /// Exponential decay half-life of unrefreshed suspicion.
  netbase::SimTime half_life = 500 * netbase::kMillisecond;
  /// Decayed suspects below this confidence are forgotten entirely.
  double forget_below = 0.05;
  /// Debounce: a suspect must be named by at least this many observe()
  /// passes...
  int min_sightings = 2;
  /// ... spanning at least this much time, before it can be confirmed.
  netbase::SimTime min_age = 200 * netbase::kMillisecond;
};

/// Accumulates localize_network() passes into per-suspect confidence.
class NetworkEvidence {
 public:
  explicit NetworkEvidence(EvidenceOptions options = {})
      : options_(options) {}

  /// Runs one localization pass over `reports` and folds it into the
  /// evidence state (confidence bump for named suspects, decay for the
  /// rest).  `now` orders passes; it must be non-decreasing.
  void observe(std::span<const SwitchFailureReport> reports,
               const NetworkView& view, netbase::SimTime now);

  /// The confirmed (debounced, confidence-bearing) suspects only.
  [[nodiscard]] NetworkDiagnosis diagnosis() const;

  /// Per-suspect bookkeeping, exposed for tests and the fig12 bench.
  struct Suspect {
    double confidence = 0.0;
    int sightings = 0;
    netbase::SimTime first_seen = 0;
    netbase::SimTime last_seen = 0;
  };

  [[nodiscard]] std::size_t suspect_count() const {
    return links_.size() + switches_.size() + isolated_.size();
  }
  /// Confidence of the link at (`sw`, `port`) (either endpoint), 0 when
  /// not under suspicion.
  [[nodiscard]] double link_confidence(SwitchId sw, std::uint16_t port) const;
  [[nodiscard]] double switch_confidence(SwitchId sw) const;
  [[nodiscard]] double rule_confidence(SwitchId sw, std::uint64_t cookie) const;

  void clear() {
    links_.clear();
    switches_.clear();
    isolated_.clear();
    last_observe_ = 0;
  }

  [[nodiscard]] const EvidenceOptions& options() const { return options_; }

 private:
  using LinkKey = std::tuple<SwitchId, std::uint16_t, SwitchId, std::uint16_t>;
  using RuleKey = std::pair<SwitchId, std::uint64_t>;

  template <typename Payload>
  struct Entry {
    Suspect meta;
    Payload payload;  // last-seen diagnosis element, republished on confirm
  };

  [[nodiscard]] bool confirmed(const Suspect& s) const;
  void decay_all(netbase::SimTime now);

  EvidenceOptions options_;
  std::map<LinkKey, Entry<LinkDiagnosis>> links_;
  std::map<SwitchId, Entry<SwitchSuspect>> switches_;
  std::map<RuleKey, Entry<IsolatedRuleFault>> isolated_;
  netbase::SimTime last_observe_ = 0;
};

}  // namespace monocle
