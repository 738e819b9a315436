//! Implementation and costing: turning logical groups into physical winners.
//!
//! This is the "optimize inputs / implement" half of a Cascades optimizer,
//! run as a bottom-up pass over the memo. Every physical alternative
//! considered charges compilation memory, just like logical alternatives do.

use crate::cardinality::CardinalityEstimator;
use crate::cost::{Cost, CostModel};
use crate::logical::LogicalOp;
use crate::memo::{ExprId, GroupId, Implementation, Memo, MemoOp, Winner};
use crate::memory::{sizes, CompilationMemory};
use crate::physical::{PhysicalOp, PhysicalPlan};
use throttledb_catalog::Catalog;

/// Context shared by the implementation pass.
pub struct ImplementationContext<'a> {
    /// The catalog (for page counts and index lookups).
    pub catalog: &'a Catalog,
    /// Cardinality estimator.
    pub estimator: CardinalityEstimator<'a>,
    /// Cost model.
    pub model: CostModel,
}

/// Compute winners for `group` and (recursively) everything it depends on.
/// Returns the winner's total cost, or `None` when the group has no
/// implementable expression (cannot happen for binder-produced plans).
///
/// Alternatives are compared by cost alone; the winner records which
/// [`Implementation`] won, and [`extract_plan`] builds its operator.
pub fn optimize_group(
    memo: &mut Memo,
    group: GroupId,
    ctx: &ImplementationContext<'_>,
    mem: &mut CompilationMemory,
) -> Option<Cost> {
    if let Some(w) = &memo.group(group).winner {
        return Some(w.total_cost);
    }
    let mut best: Option<Winner> = None;

    'exprs: for i in 0..memo.group(group).exprs.len() {
        let expr_id = memo.group(group).exprs[i];
        let expr = *memo.expr(expr_id);
        // Optimize children first.
        let mut child_total = Cost::ZERO;
        for c in expr.children() {
            match optimize_group(memo, *c, ctx, mem) {
                Some(cost) => child_total = child_total + cost,
                None => continue 'exprs,
            }
        }

        for_each_alternative(
            memo,
            group,
            expr_id,
            ctx,
            |implementation, local_cost, memory_bytes| {
                mem.charge(sizes::PHYSICAL_EXPR_BYTES);
                let total_cost = local_cost + child_total;
                let better = match &best {
                    None => true,
                    Some(b) => total_cost.total() < b.total_cost.total(),
                };
                if better {
                    best = Some(Winner {
                        expr: expr_id,
                        implementation,
                        local_cost,
                        total_cost,
                        memory_bytes,
                    });
                }
            },
        );
    }

    let cost = best.as_ref().map(|w| w.total_cost);
    memo.group_mut(group).winner = best;
    cost
}

/// Cost each physical alternative of one logical expression, in a fixed
/// order, calling `consider(implementation, local cost, execution memory)`.
fn for_each_alternative(
    memo: &Memo,
    group: GroupId,
    expr_id: ExprId,
    ctx: &ImplementationContext<'_>,
    mut consider: impl FnMut(Implementation, Cost, u64),
) {
    let model = &ctx.model;
    let out_rows = memo.group(group).rows;
    let expr = memo.expr(expr_id);
    let op = match expr.op {
        MemoOp::Join { preds, .. } => {
            let left = memo.group(expr.children()[0]);
            let right = memo.group(expr.children()[1]);
            // Hash join: build on the right child.
            if !memo.preds(preds).is_empty() {
                consider(
                    Implementation::HashJoin,
                    model.hash_join(right.rows, left.rows, out_rows),
                    model.hash_join_memory(right.rows, right.row_width),
                );
            }
            // Nested loops: re-evaluate the right side per left row.
            let right_cost = right
                .winner
                .as_ref()
                .map(|w| w.total_cost.total())
                .unwrap_or(right.rows * model.cpu_per_row);
            consider(
                Implementation::NestedLoopJoin,
                model.nested_loop_join(left.rows, right_cost, out_rows),
                0,
            );
            return;
        }
        MemoOp::Base(id) => memo.base_op(id),
    };
    if let LogicalOp::Get {
        table, predicates, ..
    } = op
    {
        let table = ctx.catalog.table(table);
        let (pages, raw_rows) = match table {
            Some(t) => (t.total_pages() as f64, t.row_count() as f64),
            None => (1000.0, 100_000.0),
        };
        consider(
            Implementation::TableScan,
            model.table_scan(raw_rows, pages),
            0,
        );
        // An index seek is possible when some predicate's column is the
        // leading key of an index on this table.
        if let Some(t) = table {
            for pred in predicates {
                let Some(col) = pred.column() else { continue };
                for (position, index) in t.indexes.iter().enumerate() {
                    if index.covers_prefix(&col.column) {
                        consider(
                            Implementation::IndexSeek(position as u32),
                            model.index_seek(out_rows, pages),
                            0,
                        );
                    }
                }
            }
        }
        return;
    }
    let input = memo.group(expr.children()[0]);
    let (local_cost, memory_bytes) = match op {
        LogicalOp::Aggregate { .. } => (
            model.hash_aggregate(input.rows, out_rows),
            model.hash_aggregate_memory(out_rows, memo.group(group).row_width),
        ),
        LogicalOp::Sort { .. } => (
            model.sort(input.rows),
            model.sort_memory(input.rows, input.row_width),
        ),
        LogicalOp::Limit { count } => (model.streaming(input.rows.min(*count as f64)), 0),
        _ => (model.streaming(input.rows), 0),
    };
    consider(Implementation::Direct, local_cost, memory_bytes);
}

/// The named physical operator of a group's winner.
fn physical_op(memo: &Memo, winner: &Winner, catalog: &Catalog) -> PhysicalOp {
    let op = match memo.expr(winner.expr).op {
        MemoOp::Join { kind, preds } => {
            let predicates = memo.join_predicates(preds);
            return match winner.implementation {
                Implementation::HashJoin => PhysicalOp::HashJoin { kind, predicates },
                _ => PhysicalOp::NestedLoopJoin { kind, predicates },
            };
        }
        MemoOp::Base(id) => memo.base_op(id),
    };
    match op.clone() {
        LogicalOp::Get {
            table,
            binding,
            predicates,
        } => match winner.implementation {
            Implementation::IndexSeek(position) => PhysicalOp::IndexSeek {
                index: catalog
                    .table(&table)
                    .map(|t| t.indexes[position as usize].name.clone())
                    .unwrap_or_default(),
                table,
                binding,
                predicates,
            },
            _ => PhysicalOp::TableScan {
                table,
                binding,
                predicates,
            },
        },
        LogicalOp::Aggregate {
            group_by,
            aggregate_count,
        } => PhysicalOp::HashAggregate {
            group_by,
            aggregate_count,
        },
        LogicalOp::Filter { selectivity_ppm } => PhysicalOp::Filter { selectivity_ppm },
        LogicalOp::Project { column_count } => PhysicalOp::Project { column_count },
        LogicalOp::Sort { key_count } => PhysicalOp::Sort { key_count },
        LogicalOp::Limit { count } => PhysicalOp::Limit { count },
        LogicalOp::Join { .. } => unreachable!("joins are interned as MemoOp::Join"),
    }
}

/// Extract the winner of `group` as a materialized [`PhysicalPlan`] tree,
/// naming its operators from the memo's interned symbols and `catalog`.
pub fn extract_plan(memo: &Memo, group: GroupId, catalog: &Catalog) -> Option<PhysicalPlan> {
    let g = memo.group(group);
    let w = g.winner.as_ref()?;
    let child_groups = memo.expr(w.expr).children();
    let mut children = Vec::with_capacity(child_groups.len());
    for c in child_groups {
        children.push(extract_plan(memo, *c, catalog)?);
    }
    Some(PhysicalPlan {
        op: physical_op(memo, w, catalog),
        children,
        est_rows: g.rows,
        est_row_width: g.row_width,
        local_cost: w.local_cost,
        total_cost: w.total_cost,
        memory_bytes: w.memory_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use throttledb_catalog::tpch_schema;
    use throttledb_sqlparse::parse;

    fn optimize(sql: &str) -> (Memo, GroupId, PhysicalPlan) {
        let cat = tpch_schema(1.0);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = Binder::new(&cat).bind(&parse(sql).unwrap()).unwrap();
        let root = memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let ctx = ImplementationContext {
            catalog: &cat,
            estimator: est,
            model: CostModel::default(),
        };
        optimize_group(&mut memo, root, &ctx, &mut mem).expect("optimizable");
        let phys = extract_plan(&memo, root, &cat).expect("winner");
        (memo, root, phys)
    }

    #[test]
    fn single_table_query_becomes_a_scan() {
        let (_, _, plan) = optimize("SELECT o_orderkey FROM orders");
        assert_eq!(plan.scan_count(), 1);
        assert_eq!(plan.join_count(), 0);
        assert!(plan.total_cost.total() > 0.0);
    }

    #[test]
    fn selective_predicate_prefers_index_seek() {
        let (_, _, plan) = optimize("SELECT o_orderkey FROM orders WHERE o_orderkey = 12345");
        let mut used_seek = false;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::IndexSeek { .. }) {
                used_seek = true;
            }
        });
        assert!(
            used_seek,
            "point lookup on the PK should use an index seek:\n{}",
            plan.display_indented()
        );
    }

    #[test]
    fn unselective_scan_prefers_table_scan() {
        let (_, _, plan) = optimize("SELECT o_orderkey FROM orders WHERE o_totalprice > 1");
        let mut used_scan = false;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::TableScan { .. }) {
                used_scan = true;
            }
        });
        assert!(used_scan);
    }

    #[test]
    fn equi_join_uses_hash_join_for_large_tables() {
        let (_, _, plan) = optimize(
            "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        assert_eq!(plan.join_count(), 1);
        let mut hash = false;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::HashJoin { .. }) {
                hash = true;
            }
        });
        assert!(
            hash,
            "large equi-join should hash:\n{}",
            plan.display_indented()
        );
        assert!(plan.total_memory_requirement() > 0);
    }

    #[test]
    fn aggregate_query_contains_hash_aggregate_with_memory() {
        let (_, _, plan) = optimize(
            "SELECT c.c_mktsegment, SUM(o.o_totalprice) FROM orders o \
             JOIN customer c ON o.o_custkey = c.c_custkey GROUP BY c.c_mktsegment",
        );
        let mut agg_mem = 0;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::HashAggregate { .. }) {
                agg_mem = p.memory_bytes;
            }
        });
        assert!(agg_mem > 0);
    }

    #[test]
    fn winners_are_cached_per_group() {
        let cat = tpch_schema(1.0);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = Binder::new(&cat)
            .bind(&parse("SELECT o_orderkey FROM orders").unwrap())
            .unwrap();
        let root = memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let ctx = ImplementationContext {
            catalog: &cat,
            estimator: est,
            model: CostModel::default(),
        };
        let c1 = optimize_group(&mut memo, root, &ctx, &mut mem).unwrap();
        let used_after_first = mem.used_bytes();
        let c2 = optimize_group(&mut memo, root, &ctx, &mut mem).unwrap();
        assert_eq!(c1.total(), c2.total());
        assert_eq!(
            mem.used_bytes(),
            used_after_first,
            "cached winner should not re-charge"
        );
    }

    #[test]
    fn costing_charges_physical_memory() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = Binder::new(&cat)
            .bind(&parse("SELECT o_orderkey FROM orders").unwrap())
            .unwrap();
        let root = memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let before = mem.used_bytes();
        let ctx = ImplementationContext {
            catalog: &cat,
            estimator: est,
            model: CostModel::default(),
        };
        optimize_group(&mut memo, root, &ctx, &mut mem).unwrap();
        assert!(mem.used_bytes() > before);
    }

    #[test]
    fn extract_plan_requires_winners() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = Binder::new(&cat)
            .bind(&parse("SELECT o_orderkey FROM orders").unwrap())
            .unwrap();
        let root = memo.insert_plan(&plan, &est, &mut mem).unwrap();
        assert!(extract_plan(&memo, root, &cat).is_none());
    }
}
