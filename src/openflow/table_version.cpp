#include "openflow/table_version.hpp"

#include <algorithm>

namespace monocle::openflow {

std::vector<std::uint64_t> TableDelta::affected_cookies() const {
  std::vector<std::uint64_t> out;
  out.reserve(overlapping_higher.size() + overlapping_lower.size() + 2);
  out.push_back(rule.cookie);
  if (replaced.has_value() && replaced->cookie != rule.cookie) {
    out.push_back(replaced->cookie);
  }
  out.insert(out.end(), overlapping_higher.begin(), overlapping_higher.end());
  out.insert(out.end(), overlapping_lower.begin(), overlapping_lower.end());
  return out;
}

FlowTable& TableVersion::mutable_table() {
  // Copy-on-write: clone only while a snapshot still shares the state.  The
  // clone carries both of the table's indexes, so the mutation that follows
  // patches them as it would in place.
  if (current_.use_count() > 1) {
    current_ = std::make_shared<FlowTable>(*current_);
  }
  return *current_;
}

void TableVersion::fill_overlap_info(TableDelta& delta) const {
  // Computed against the pre-apply table.  overlapping() excludes the
  // changed rule's own slot (identical match+priority) by construction, so
  // for add-replace/modify/delete the sets are exactly "the other rules" —
  // and for a plain insert nothing is excluded because no such slot exists.
  const FlowTable::OverlapSets sets = current_->overlapping(delta.rule);
  delta.overlapping_higher.reserve(sets.higher.size());
  for (const Rule* r : sets.higher) {
    delta.overlapping_higher.push_back(r->cookie);
    if (!delta.fully_shadowed && r->match.subsumes(delta.rule.match)) {
      delta.fully_shadowed = true;
    }
  }
  delta.overlapping_lower.reserve(sets.lower.size());
  for (const Rule* r : sets.lower) delta.overlapping_lower.push_back(r->cookie);
}

TableDelta TableVersion::apply_add(const Rule& rule) {
  TableDelta delta;
  delta.kind = TableDelta::Kind::kAdd;
  delta.rule = rule;
  fill_overlap_info(delta);
  FlowTable::AddResult res = mutable_table().add_indexed(rule);
  delta.rule_index = res.index;
  delta.replaced = std::move(res.replaced);
  delta.epoch = ++epoch_;
  return delta;
}

std::optional<TableDelta> TableVersion::apply_modify_strict(const Rule& rule) {
  const auto index = current_->find_index(rule.match, rule.priority);
  if (!index) return std::nullopt;
  return apply_modify_at(*index, rule);
}

TableDelta TableVersion::apply_modify_at(std::size_t index, const Rule& rule) {
  TableDelta delta;
  delta.kind = TableDelta::Kind::kModify;
  delta.rule = rule;
  delta.replaced = current_->rules()[index];
  delta.rule_index = index;
  fill_overlap_info(delta);
  mutable_table().modify_at(index, rule);
  delta.epoch = ++epoch_;
  return delta;
}

std::optional<TableDelta> TableVersion::apply_delete_strict(
    const Match& match, std::uint16_t priority) {
  const auto index = current_->find_index(match, priority);
  if (!index) return std::nullopt;
  return apply_delete_at(*index);
}

TableDelta TableVersion::apply_delete_at(std::size_t index) {
  TableDelta delta;
  delta.kind = TableDelta::Kind::kDelete;
  delta.rule = current_->rules()[index];
  delta.rule_index = index;
  fill_overlap_info(delta);
  mutable_table().erase_at(index);
  delta.epoch = ++epoch_;
  return delta;
}

std::vector<TableDelta> TableVersion::apply_delete(const Match& pattern) {
  // Collect the victims first: each removal is its own delta (paper §4.1
  // confirms a multi-rule delete per rule) and each delta's overlap sets are
  // computed against the table as it stands when THAT rule goes.
  std::vector<std::pair<Match, std::uint16_t>> victims;
  for (const Rule& r : current_->rules()) {
    if (pattern.subsumes(r.match)) victims.emplace_back(r.match, r.priority);
  }
  std::vector<TableDelta> deltas;
  deltas.reserve(victims.size());
  for (const auto& [match, priority] : victims) {
    if (auto delta = apply_delete_strict(match, priority)) {
      deltas.push_back(std::move(*delta));
    }
  }
  return deltas;
}

std::vector<TableDelta> TableVersion::apply(const FlowMod& fm) {
  switch (fm.command) {
    case FlowModCommand::kAdd:
      return {apply_add(fm.rule())};
    case FlowModCommand::kModify:
    case FlowModCommand::kModifyStrict: {
      if (auto delta = apply_modify_strict(fm.rule())) {
        return {std::move(*delta)};
      }
      // OpenFlow 1.0: a modify with no matching rule behaves as an add.
      return {apply_add(fm.rule())};
    }
    case FlowModCommand::kDelete:
      return apply_delete(fm.match);
    case FlowModCommand::kDeleteStrict: {
      if (auto delta = apply_delete_strict(fm.match, fm.priority)) {
        return {std::move(*delta)};
      }
      return {};
    }
  }
  return {};
}

}  // namespace monocle::openflow
