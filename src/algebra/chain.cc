#include "algebra/chain.h"

namespace imp {

bool StatelessChain::Replay(const Tuple& base_row, Tuple* out) const {
  if (scan_filter && !scan_filter->Eval(base_row).IsTrue()) return false;
  // Steps read the base row in place until a projection produces a row of
  // its own, so a projected chain copies no full-width row.
  const Tuple* current = &base_row;
  Tuple projected;
  for (const ChainStep& step : steps) {
    if (step.is_filter) {
      if (!step.predicate->Eval(*current).IsTrue()) return false;
    } else {
      Tuple next;
      next.reserve(step.exprs.size());
      for (const ExprPtr& e : step.exprs) next.push_back(e->Eval(*current));
      projected = std::move(next);
      current = &projected;
    }
  }
  *out = current == &base_row ? base_row : std::move(projected);
  return true;
}

std::optional<StatelessChain> ExtractStatelessChain(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(*plan);
      StatelessChain chain;
      chain.table = scan.table();
      chain.scan_schema = scan.output_schema();
      chain.scan_filter = scan.filter();
      chain.to_scan.resize(scan.output_schema().size());
      for (size_t i = 0; i < chain.to_scan.size(); ++i) {
        chain.to_scan[i] = static_cast<int>(i);
      }
      return chain;
    }
    case PlanKind::kSelect: {
      const auto& select = static_cast<const SelectNode&>(*plan);
      auto chain = ExtractStatelessChain(select.child());
      if (!chain) return std::nullopt;
      ChainStep step;
      step.is_filter = true;
      step.predicate = select.predicate();
      chain->steps.push_back(std::move(step));
      return chain;
    }
    case PlanKind::kProject: {
      const auto& proj = static_cast<const ProjectNode&>(*plan);
      auto chain = ExtractStatelessChain(proj.child());
      if (!chain) return std::nullopt;
      ChainStep step;
      step.is_filter = false;
      step.exprs = proj.exprs();
      chain->steps.push_back(std::move(step));
      std::vector<int> mapped(proj.exprs().size(), -1);
      for (size_t i = 0; i < proj.exprs().size(); ++i) {
        const ExprPtr& e = proj.exprs()[i];
        if (e->kind() == ExprKind::kColumnRef) {
          size_t src = static_cast<const ColumnRefExpr&>(*e).index();
          mapped[i] = chain->to_scan[src];
        }
      }
      chain->to_scan = std::move(mapped);
      return chain;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace imp
