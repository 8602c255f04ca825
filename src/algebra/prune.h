// Column pruning: narrow join inputs to the columns the query reads.
//
// Rows are materialized as boxed tuples, so a join that concatenates whole
// base-table rows pays for every column of every input even when the
// query reads a handful of them (TPC-H Q5 builds 23-column rows and reads
// 7). PruneColumns computes, top-down, which output columns of every node
// some ancestor reads, and places a Project of plain column references
// directly above each base-table Scan that feeds a Join, wherever that
// drops columns. Expressions above are remapped onto the narrowed inputs.
//
// What does not change:
//  * Scans keep their full table schema, so the sketch use-rewrite, the
//    partition annotation of scanned rows, stateless-chain recognition
//    (delta pre-filtering, index-probed joins) and the safety analysis
//    see base rows exactly as before;
//  * the root's output schema;
//  * join-free plans — in particular single-table Aggregate(Scan) keeps
//    the shape the columnar aggregate build recognizes. Aggregates and
//    projections narrow their own output, so scans below them (outside a
//    join) are left alone.
//
// The binder runs this pass on every SELECT it binds, so every consumer
// (no-sketch execution, capture, maintenance, use-rewrite, reuse) and the
// sketch store's template keys see one plan.

#ifndef IMP_ALGEBRA_PRUNE_H_
#define IMP_ALGEBRA_PRUNE_H_

#include "algebra/plan.h"

namespace imp {

/// Returns `plan` with join inputs narrowed to the columns read above them;
/// returns `plan` itself when nothing can be dropped.
PlanPtr PruneColumns(const PlanPtr& plan);

}  // namespace imp

#endif  // IMP_ALGEBRA_PRUNE_H_
