#include "algebra/prune.h"

namespace imp {

namespace {

/// A rewritten subtree plus where each of the original node's output
/// columns went: mapping[old] = new index, or -1 when the column was
/// dropped (only ever a column no ancestor reads).
struct Pruned {
  PlanPtr plan;
  std::vector<int> mapping;
};

std::vector<int> Identity(size_t n) {
  std::vector<int> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<int>(i);
  return out;
}

void MarkColumns(const ExprPtr& e, std::vector<bool>* need) {
  if (e == nullptr) return;
  std::vector<size_t> cols;
  e->CollectColumns(&cols);
  for (size_t c : cols) (*need)[c] = true;
}

/// `need[i]` says whether some ancestor reads output column i of `plan`.
/// `narrow_scan` is set below a join (through selections): a scan there
/// gets a Project of the needed columns.
Pruned Prune(const PlanPtr& plan, std::vector<bool> need, bool narrow_scan) {
  const size_t width = plan->output_schema().size();
  switch (plan->kind()) {
    case PlanKind::kScan: {
      size_t kept = 0;
      for (bool n : need) kept += n ? 1 : 0;
      if (!narrow_scan || kept == width) return {plan, Identity(width)};
      // Keep one column even when none is read (COUNT(*) over a cross
      // product), so no operator ever sees zero-width rows.
      if (kept == 0) need[0] = true;
      const Schema& schema = plan->output_schema();
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      std::vector<int> mapping(width, -1);
      for (size_t i = 0; i < width; ++i) {
        if (!need[i]) continue;
        mapping[i] = static_cast<int>(exprs.size());
        exprs.push_back(
            MakeColumnRef(i, schema.column(i).name, schema.column(i).type));
        names.push_back(schema.column(i).name);
      }
      return {MakeProject(plan, std::move(exprs), std::move(names)),
              std::move(mapping)};
    }
    case PlanKind::kSelect: {
      const auto& node = static_cast<const SelectNode&>(*plan);
      MarkColumns(node.predicate(), &need);
      Pruned child = Prune(node.child(), std::move(need), narrow_scan);
      if (child.plan == node.child()) return {plan, Identity(width)};
      return {MakeSelect(child.plan,
                         node.predicate()->RemapColumns(child.mapping)),
              std::move(child.mapping)};
    }
    case PlanKind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(*plan);
      std::vector<size_t> keep;
      for (size_t i = 0; i < width; ++i) {
        if (need[i]) keep.push_back(i);
      }
      if (keep.empty() && width > 0) keep.push_back(0);  // no zero-width rows
      std::vector<bool> child_need(node.child()->output_schema().size(), false);
      for (size_t i : keep) MarkColumns(node.exprs()[i], &child_need);
      // The projection narrows its own output; a scan directly below it
      // needs no second projection.
      Pruned child = Prune(node.child(), std::move(child_need), false);
      if (child.plan == node.child() && keep.size() == width) {
        return {plan, Identity(width)};
      }
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      std::vector<int> mapping(width, -1);
      for (size_t i : keep) {
        mapping[i] = static_cast<int>(exprs.size());
        exprs.push_back(node.exprs()[i]->RemapColumns(child.mapping));
        names.push_back(node.output_schema().column(i).name);
      }
      return {MakeProject(child.plan, std::move(exprs), std::move(names)),
              std::move(mapping)};
    }
    case PlanKind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(*plan);
      const size_t left_width = node.left()->output_schema().size();
      MarkColumns(node.residual(), &need);
      std::vector<bool> left_need(need.begin(), need.begin() + left_width);
      std::vector<bool> right_need(need.begin() + left_width, need.end());
      for (const auto& [lc, rc] : node.keys()) {
        left_need[lc] = true;
        right_need[rc] = true;
      }
      Pruned left = Prune(node.left(), std::move(left_need), true);
      Pruned right = Prune(node.right(), std::move(right_need), true);
      if (left.plan == node.left() && right.plan == node.right()) {
        return {plan, Identity(width)};
      }
      const int new_left_width =
          static_cast<int>(left.plan->output_schema().size());
      std::vector<int> mapping = left.mapping;
      for (int m : right.mapping) {
        mapping.push_back(m < 0 ? -1 : new_left_width + m);
      }
      std::vector<JoinNode::KeyPair> keys;
      for (const auto& [lc, rc] : node.keys()) {
        keys.emplace_back(static_cast<size_t>(left.mapping[lc]),
                          static_cast<size_t>(right.mapping[rc]));
      }
      ExprPtr residual =
          node.residual() ? node.residual()->RemapColumns(mapping) : nullptr;
      return {MakeJoin(left.plan, right.plan, std::move(keys),
                       std::move(residual)),
              std::move(mapping)};
    }
    case PlanKind::kAggregate: {
      // Group and aggregate outputs are all kept: only the input narrows,
      // and a scan directly below keeps its shape (the columnar build).
      const auto& node = static_cast<const AggregateNode&>(*plan);
      std::vector<bool> child_need(node.child()->output_schema().size(), false);
      for (const ExprPtr& g : node.group_exprs()) MarkColumns(g, &child_need);
      for (const AggSpec& agg : node.aggs()) MarkColumns(agg.arg, &child_need);
      Pruned child = Prune(node.child(), std::move(child_need), false);
      if (child.plan == node.child()) return {plan, Identity(width)};
      std::vector<ExprPtr> group_exprs;
      std::vector<std::string> group_names;
      for (size_t i = 0; i < node.group_exprs().size(); ++i) {
        group_exprs.push_back(
            node.group_exprs()[i]->RemapColumns(child.mapping));
        group_names.push_back(node.output_schema().column(i).name);
      }
      std::vector<AggSpec> aggs = node.aggs();
      for (AggSpec& agg : aggs) {
        if (agg.arg) agg.arg = agg.arg->RemapColumns(child.mapping);
      }
      return {MakeAggregate(child.plan, std::move(group_exprs),
                            std::move(group_names), std::move(aggs)),
              Identity(width)};
    }
    case PlanKind::kTopK: {
      const auto& node = static_cast<const TopKNode&>(*plan);
      for (const SortSpec& s : node.sorts()) need[s.column] = true;
      Pruned child = Prune(node.child(), std::move(need), narrow_scan);
      if (child.plan == node.child()) return {plan, Identity(width)};
      std::vector<SortSpec> sorts = node.sorts();
      for (SortSpec& s : sorts) {
        s.column = static_cast<size_t>(child.mapping[s.column]);
      }
      return {MakeTopK(child.plan, std::move(sorts), node.k()),
              std::move(child.mapping)};
    }
    case PlanKind::kDistinct: {
      // Every column decides duplicates, so all of them are read.
      const auto& node = static_cast<const DistinctNode&>(*plan);
      Pruned child =
          Prune(node.child(), std::vector<bool>(width, true), narrow_scan);
      if (child.plan == node.child()) return {plan, Identity(width)};
      return {MakeDistinct(child.plan), Identity(width)};
    }
  }
  return {plan, Identity(width)};
}

}  // namespace

PlanPtr PruneColumns(const PlanPtr& plan) {
  return Prune(plan, std::vector<bool>(plan->output_schema().size(), true),
               false)
      .plan;
}

}  // namespace imp
