#include "monocle/checkpoint.hpp"

#include <bit>
#include <cstring>

#include "netbase/fields.hpp"
#include "netbase/packed_bits.hpp"

namespace monocle {

namespace {

// Payload grammar (all items native-endian u64 words):
//   header  := version shard when epoch epoch_floor budget
//   body    := section(verdict) section(floor) section(suspect)
//              section(manifest)
//   section := count entry*
//   verdict := cookie state
//   floor   := cookie epoch
//   suspect := cookie probes_left strikes backoff since
//   manifest:= cookie epoch probe
//   probe   := packet[kFieldCount] rule_cookie pred pred
//   pred    := kind n_obs (port header[kHeaderWords])*
constexpr std::size_t kHeaderWords = 6;
constexpr std::size_t kVerdictWords = 2;
constexpr std::size_t kFloorWords = 2;
constexpr std::size_t kSuspectWords = 5;

/// Words one prediction takes: kind, n_obs, then port + header per
/// observation.
std::size_t prediction_words(const OutcomePrediction& pred) {
  return 2 + pred.observations.size() * (1 + netbase::kHeaderWords);
}

/// Stores one native-endian word at `at` and advances it.
inline void put(std::uint8_t*& at, std::uint64_t word) {
  std::memcpy(at, &word, sizeof(word));
  at += sizeof(word);
}

/// Bounds-checked word reader over a snapshot payload.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t at = 0;
  bool ok = true;

  std::uint64_t get() {
    if (!ok || at + sizeof(std::uint64_t) > bytes.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    at += sizeof(v);
    return v;
  }

  /// A claimed element count: implausible values (larger than the bytes
  /// left could hold at one word per element) poison the read before any
  /// allocation sized from attacker/corruption-controlled data.
  std::uint64_t get_count() {
    const std::uint64_t n = get();
    if (ok && n > (bytes.size() - at) / sizeof(std::uint64_t)) ok = false;
    return ok ? n : 0;
  }
};

bool decode_prediction(Reader& r, OutcomePrediction& pred) {
  const std::uint64_t kind = r.get();
  if (kind > static_cast<std::uint64_t>(openflow::ForwardKind::kEcmp)) {
    r.ok = false;
  }
  pred.kind = static_cast<openflow::ForwardKind>(kind);
  const std::uint64_t n = r.get_count();
  if (!r.ok) return false;
  pred.observations.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Observation& obs = pred.observations[i];
    obs.output_port = static_cast<std::uint16_t>(r.get());
    for (int w = 0; w < netbase::kHeaderWords; ++w) {
      obs.header.w[static_cast<std::size_t>(w)] = r.get();
    }
  }
  return r.ok;
}

bool decode_probe(Reader& r, Probe& probe) {
  for (const netbase::Field f : netbase::kAllFields) {
    probe.packet.set(f, r.get());
  }
  probe.rule_cookie = r.get();
  if (!decode_prediction(r, probe.if_present)) return false;
  return decode_prediction(r, probe.if_absent);
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

CheckpointWriter::CheckpointWriter(std::vector<std::uint8_t>& out,
                                   SwitchId shard, netbase::SimTime when,
                                   openflow::Epoch epoch,
                                   openflow::Epoch epoch_floor,
                                   std::uint64_t budget)
    : out_(out) {
  out_.clear();  // capacity retained: steady-state writes allocate nothing
  std::uint8_t* at = extend(kHeaderWords);
  put(at, Checkpoint::kFormatVersion);
  put(at, shard);
  put(at, static_cast<std::uint64_t>(when));
  put(at, epoch);
  put(at, epoch_floor);
  put(at, budget);
}

std::uint8_t* CheckpointWriter::extend(std::size_t words) {
  const std::size_t at = out_.size();
  out_.resize(at + words * sizeof(std::uint64_t));
  return out_.data() + at;
}

void CheckpointWriter::open_section() {
  count_at_ = out_.size();
  count_ = 0;
  std::uint8_t* at = extend(1);
  put(at, 0);  // patched by close_section
}

void CheckpointWriter::close_section() {
  std::memcpy(out_.data() + count_at_, &count_, sizeof(count_));
}

void CheckpointWriter::begin_verdicts() { open_section(); }

void CheckpointWriter::add_verdict(std::uint64_t cookie, RuleState state) {
  std::uint8_t* at = extend(kVerdictWords);
  put(at, cookie);
  put(at, static_cast<std::uint64_t>(state));
  ++count_;
}

void CheckpointWriter::begin_floors() {
  close_section();
  open_section();
}

void CheckpointWriter::add_floor(std::uint64_t cookie, openflow::Epoch epoch) {
  std::uint8_t* at = extend(kFloorWords);
  put(at, cookie);
  put(at, epoch);
  ++count_;
}

void CheckpointWriter::begin_suspects() {
  close_section();
  open_section();
}

void CheckpointWriter::add_suspect(const Checkpoint::SuspectState& s) {
  std::uint8_t* at = extend(kSuspectWords);
  put(at, s.cookie);
  put(at, static_cast<std::uint64_t>(s.probes_left));
  put(at, static_cast<std::uint64_t>(s.strikes));
  put(at, static_cast<std::uint64_t>(s.backoff));
  put(at, static_cast<std::uint64_t>(s.since));
  ++count_;
}

void CheckpointWriter::begin_manifest() {
  close_section();
  open_section();
}

void CheckpointWriter::add_manifest(std::uint64_t cookie,
                                    openflow::Epoch epoch, const Probe& probe) {
  std::uint8_t* at = extend(2 + netbase::kAllFields.size() + 1 +
                            prediction_words(probe.if_present) +
                            prediction_words(probe.if_absent));
  put(at, cookie);
  put(at, epoch);
  for (const netbase::Field f : netbase::kAllFields) {
    put(at, probe.packet.get(f));
  }
  put(at, probe.rule_cookie);
  for (const OutcomePrediction* pred : {&probe.if_present, &probe.if_absent}) {
    put(at, static_cast<std::uint64_t>(pred->kind));
    put(at, pred->observations.size());
    for (const Observation& obs : pred->observations) {
      put(at, obs.output_port);
      for (int w = 0; w < netbase::kHeaderWords; ++w) {
        put(at, obs.header.w[static_cast<std::size_t>(w)]);
      }
    }
  }
  ++count_;
}

void CheckpointWriter::finish() { close_section(); }

// ---------------------------------------------------------------------------
// Checkpoint::decode
// ---------------------------------------------------------------------------

std::optional<Checkpoint> Checkpoint::decode(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (r.get() != kFormatVersion) return std::nullopt;
  Checkpoint cp;
  cp.shard = r.get();
  cp.when = static_cast<netbase::SimTime>(r.get());
  cp.epoch = r.get();
  cp.epoch_floor = r.get();
  cp.budget = r.get();
  if (!r.ok) return std::nullopt;

  const std::uint64_t n_verdicts = r.get_count();
  cp.verdicts.reserve(n_verdicts);
  for (std::uint64_t i = 0; r.ok && i < n_verdicts; ++i) {
    RuleVerdict v;
    v.cookie = r.get();
    const std::uint64_t state = r.get();
    if (state > static_cast<std::uint64_t>(RuleState::kSuspect)) r.ok = false;
    v.state = static_cast<RuleState>(state);
    cp.verdicts.push_back(v);
  }

  const std::uint64_t n_floors = r.get_count();
  cp.floors.reserve(n_floors);
  for (std::uint64_t i = 0; r.ok && i < n_floors; ++i) {
    RuleFloor f;
    f.cookie = r.get();
    f.epoch = r.get();
    cp.floors.push_back(f);
  }

  const std::uint64_t n_suspects = r.get_count();
  cp.suspects.reserve(n_suspects);
  for (std::uint64_t i = 0; r.ok && i < n_suspects; ++i) {
    SuspectState s;
    s.cookie = r.get();
    s.probes_left = static_cast<std::int64_t>(r.get());
    s.strikes = static_cast<std::int64_t>(r.get());
    s.backoff = static_cast<netbase::SimTime>(r.get());
    s.since = static_cast<netbase::SimTime>(r.get());
    cp.suspects.push_back(s);
  }

  const std::uint64_t n_manifest = r.get_count();
  cp.manifest.reserve(n_manifest);
  for (std::uint64_t i = 0; r.ok && i < n_manifest; ++i) {
    ManifestEntry e;
    e.cookie = r.get();
    e.epoch = r.get();
    if (!decode_probe(r, e.probe)) break;
    cp.manifest.push_back(std::move(e));
  }

  if (!r.ok || r.at != bytes.size()) return std::nullopt;
  return cp;
}

// ---------------------------------------------------------------------------
// FleetCheckpoint
// ---------------------------------------------------------------------------

void FleetCheckpoint::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  const std::uint64_t words[3] = {kFormatVersion,
                                  std::bit_cast<std::uint64_t>(budget_carry),
                                  rounds_started};
  out.resize(sizeof(words));
  std::memcpy(out.data(), words, sizeof(words));
}

std::optional<FleetCheckpoint> FleetCheckpoint::decode(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (r.get() != kFormatVersion) return std::nullopt;
  FleetCheckpoint fc;
  fc.budget_carry = std::bit_cast<double>(r.get());
  fc.rounds_started = r.get();
  if (!r.ok || r.at != bytes.size()) return std::nullopt;
  return fc;
}

}  // namespace monocle
