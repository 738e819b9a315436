//! Transformation rules: the generators of alternatives (and therefore of
//! compilation memory).
//!
//! Two rules are enough to enumerate the bushy join-order space when applied
//! to a fixed point: **join commutativity** and **left associativity**
//! (`(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`). Both are restricted to inner equi-joins
//! and never introduce cross products — matching the pruning every
//! production optimizer applies. The number of rule applications is bounded
//! by the stage budget in [`crate::search`], which is how "dynamic
//! optimization" limits effort (and memory) for cheap queries.

use crate::cardinality::CardinalityEstimator;
use crate::memo::{ExprId, GroupId, JoinPred, Memo, MemoOp, PredsId};
use crate::memory::{sizes, CompilationMemory};
use throttledb_sqlparse::JoinKind;

/// The transformation rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `A ⋈ B → B ⋈ A`.
    JoinCommute,
    /// `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`.
    JoinAssociateLeft,
}

impl Rule {
    /// All rules, in application order.
    pub const ALL: [Rule; 2] = [Rule::JoinCommute, Rule::JoinAssociateLeft];

    /// Bit used in [`crate::memo::MemoExpr::rules_applied`].
    pub fn mask(self) -> u32 {
        match self {
            Rule::JoinCommute => 1 << 0,
            Rule::JoinAssociateLeft => 1 << 1,
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::JoinCommute => "JoinCommute",
            Rule::JoinAssociateLeft => "JoinAssociateLeft",
        }
    }
}

/// Apply `rule` to `expr_id`, inserting any new alternatives into the memo
/// and appending their ids, in creation order, to `new_exprs`. Returns the
/// number of substitute expressions generated, including duplicates the
/// memo rejected: the "transformations attempted" count the stage budget
/// limits.
///
/// Transient rule-binding memory is charged and released around the
/// application, as a production optimizer's rule bindings would be.
pub fn apply_rule(
    rule: Rule,
    memo: &mut Memo,
    expr_id: ExprId,
    est: &CardinalityEstimator<'_>,
    mem: &mut CompilationMemory,
    new_exprs: &mut impl Extend<ExprId>,
) -> u64 {
    // Mark applied regardless of outcome so the search never retries.
    {
        let expr = memo.expr_mut(expr_id);
        if expr.rules_applied & rule.mask() != 0 {
            return 0;
        }
        expr.rules_applied |= rule.mask();
    }

    mem.charge(sizes::RULE_BINDING_BYTES);
    let attempted = match rule {
        Rule::JoinCommute => apply_commute(memo, expr_id, mem, new_exprs),
        Rule::JoinAssociateLeft => apply_associate_left(memo, expr_id, est, mem, new_exprs),
    };
    mem.release(sizes::RULE_BINDING_BYTES);
    attempted
}

/// The predicates and children of an inner join with at least one
/// equi-predicate.
fn as_inner_join(memo: &Memo, expr_id: ExprId) -> Option<(PredsId, GroupId, GroupId)> {
    let expr = memo.expr(expr_id);
    match expr.op {
        MemoOp::Join {
            kind: JoinKind::Inner,
            preds,
        } if !memo.preds(preds).is_empty() => Some((preds, expr.children()[0], expr.children()[1])),
        _ => None,
    }
}

/// An inner join over `preds`.
fn inner_join(preds: PredsId) -> MemoOp {
    MemoOp::Join {
        kind: JoinKind::Inner,
        preds,
    }
}

fn apply_commute(
    memo: &mut Memo,
    expr_id: ExprId,
    mem: &mut CompilationMemory,
    new_exprs: &mut impl Extend<ExprId>,
) -> u64 {
    let Some((preds, left, right)) = as_inner_join(memo, expr_id) else {
        return 0;
    };
    let group = memo.expr(expr_id).group;
    let flipped =
        memo.intern_preds_with(|m, out| out.extend(m.preds(preds).iter().map(|p| p.flipped())));
    if let Some(new_expr) = memo.add_expr_to_group(group, inner_join(flipped), &[right, left], mem)
    {
        // The commuted form has, by construction, the same children swapped;
        // applying commute to it again would just regenerate the original.
        memo.expr_mut(new_expr).rules_applied |= Rule::JoinCommute.mask();
        new_exprs.extend(Some(new_expr));
    }
    1
}

/// Where a top predicate of `(A ⋈ B) ⋈ C` goes when re-associating to
/// `A ⋈ (B ⋈ C)`: `Ok` into the new inner join `B ⋈ C` (oriented B-side
/// left), `Err` kept at the new top join. `a` and `b` are binding sets.
fn split(memo: &Memo, p: JoinPred, a: u64, b: u64) -> Result<JoinPred, JoinPred> {
    // Top preds connect (A∪B) with C; the left column is on the A∪B side.
    if memo.binding_mask(p.left) & b != 0 {
        Ok(p)
    } else if memo.binding_mask(p.left) & a != 0 {
        Err(p)
    } else if memo.binding_mask(p.right) & b != 0 {
        // Orientation was flipped.
        Ok(p.flipped())
    } else {
        Err(p)
    }
}

fn apply_associate_left(
    memo: &mut Memo,
    expr_id: ExprId,
    est: &CardinalityEstimator<'_>,
    mem: &mut CompilationMemory,
    new_exprs: &mut impl Extend<ExprId>,
) -> u64 {
    let Some((top_preds, left_group, right_group)) = as_inner_join(memo, expr_id) else {
        return 0;
    };
    let top_group = memo.expr(expr_id).group;
    let mut attempted = 0;

    // For every inner-join expression (A ⋈ B) in the left child group,
    // produce A ⋈ (B ⋈ C) where C is the right child. Expressions the loop
    // itself adds are not visited.
    let left_len = memo.group(left_group).exprs.len();
    for i in 0..left_len {
        let inner_id = memo.group(left_group).exprs[i];
        let Some((inner_preds, a_group, b_group)) = as_inner_join(memo, inner_id) else {
            continue;
        };
        let a = memo.group(a_group).bindings;
        let b = memo.group(b_group).bindings;

        // Top predicates touching B go into the new inner join (B ⋈ C).
        let bc_preds = memo.intern_preds_with(|m, out| {
            out.extend(
                m.preds(top_preds)
                    .iter()
                    .filter_map(|p| split(m, *p, a, b).ok()),
            )
        });
        // Refuse to create a cross product for (B ⋈ C).
        if memo.preds(bc_preds).is_empty() {
            continue;
        }
        // The new top join connects A with (B ⋈ C) through the old inner
        // predicates (A–B) plus any remaining top predicates (A–C).
        let new_top_preds = memo.intern_preds_with(|m, out| {
            out.extend_from_slice(m.preds(inner_preds));
            out.extend(
                m.preds(top_preds)
                    .iter()
                    .filter_map(|p| split(m, *p, a, b).err()),
            );
        });

        attempted += 1;
        // Create (or find) the group for (B ⋈ C).
        let (bc_group, bc_expr) =
            memo.insert_expr(inner_join(bc_preds), &[b_group, right_group], est, mem);
        if let Some(bc_expr) = bc_expr {
            // The intermediate join is itself a new expression that further
            // rules (commute, associate) must get a chance to expand.
            new_exprs.extend(Some(bc_expr));
        }
        // Add A ⋈ (B ⋈ C) as an alternative of the top group.
        if let Some(new_expr) = memo.add_expr_to_group(
            top_group,
            inner_join(new_top_preds),
            &[a_group, bc_group],
            mem,
        ) {
            new_exprs.extend(Some(new_expr));
        }
    }
    attempted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use crate::logical::{LogicalOp, LogicalPlan};
    use throttledb_catalog::{tpch_schema, Catalog};
    use throttledb_sqlparse::parse;

    fn bind(catalog: &Catalog, sql: &str) -> LogicalPlan {
        Binder::new(catalog).bind(&parse(sql).unwrap()).unwrap()
    }

    /// Apply one rule, returning the new expressions.
    fn apply(
        rule: Rule,
        memo: &mut Memo,
        expr: ExprId,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> Vec<ExprId> {
        let mut new_exprs = Vec::new();
        let attempted = apply_rule(rule, memo, expr, est, mem, &mut new_exprs);
        assert!(attempted >= new_exprs.len().min(1) as u64);
        new_exprs
    }

    /// Find the topmost join group in a freshly inserted plan.
    fn top_join_expr(memo: &Memo) -> ExprId {
        memo.expr_ids()
            .filter(|e| memo.expr(*e).op.is_join())
            .last()
            .expect("plan contains a join")
    }

    #[test]
    fn commute_adds_flipped_alternative() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = bind(
            &cat,
            "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let join = top_join_expr(&memo);
        let group = memo.expr(join).group;
        let before = memo.group(group).exprs.len();
        let out = apply(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        assert_eq!(out.len(), 1);
        assert_eq!(memo.group(group).exprs.len(), before + 1);
        // Children are swapped in the new expression.
        let new = memo.expr(out[0]);
        let old = memo.expr(join);
        assert_eq!(new.children()[0], old.children()[1]);
        assert_eq!(new.children()[1], old.children()[0]);
    }

    #[test]
    fn commute_is_applied_at_most_once_per_expr() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = bind(
            &cat,
            "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let join = top_join_expr(&memo);
        let first = apply(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        let second = apply(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        assert_eq!(first.len(), 1);
        assert!(second.is_empty());
        // And the commuted expression never regenerates the original.
        let third = apply(Rule::JoinCommute, &mut memo, first[0], &est, &mut mem);
        assert!(third.is_empty());
    }

    #[test]
    fn commute_ignores_non_joins() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = bind(&cat, "SELECT o_orderkey FROM orders");
        memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let get = memo
            .expr_ids()
            .find(|e| {
                matches!(memo.expr(*e).op, MemoOp::Base(op)
                    if matches!(memo.base_op(op), LogicalOp::Get { .. }))
            })
            .unwrap();
        let out = apply(Rule::JoinCommute, &mut memo, get, &est, &mut mem);
        assert!(out.is_empty());
    }

    #[test]
    fn associate_left_creates_new_intermediate_group() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        // ((lineitem ⋈ orders) ⋈ customer) — associating gives
        // lineitem ⋈ (orders ⋈ customer).
        let plan = bind(
            &cat,
            "SELECT l.l_id FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let top = top_join_expr(&memo);
        let groups_before = memo.group_count();
        let out = apply(Rule::JoinAssociateLeft, &mut memo, top, &est, &mut mem);
        // Two new expressions: the intermediate (orders ⋈ customer) join and
        // the re-associated alternative in the top group.
        assert_eq!(out.len(), 2);
        assert_eq!(
            memo.group_count(),
            groups_before + 1,
            "a new (orders ⋈ customer) group"
        );
        // The re-associated alternative lives in the same group as the original top join.
        let top_group = memo.expr(top).group;
        assert!(out.iter().any(|e| memo.expr(*e).group == top_group));
        // The intermediate join lives in its own (new) group.
        assert!(out.iter().any(|e| memo.expr(*e).group != top_group));
    }

    #[test]
    fn associate_left_refuses_cross_products() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        // customer joins orders, then lineitem joins on the *orders* key:
        // associating would pair lineitem with customer directly -> cross
        // product -> must be refused... construct the case where the top
        // predicate touches only A (customer side).
        let plan = bind(
            &cat,
            "SELECT c.c_custkey FROM customer c \
             JOIN orders o ON c.c_custkey = o.o_custkey \
             JOIN nation n ON c.c_nationkey = n.n_nationkey",
        );
        memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let top = top_join_expr(&memo);
        let groups_before = memo.group_count();
        let out = apply(Rule::JoinAssociateLeft, &mut memo, top, &est, &mut mem);
        // The only association would build (orders ⋈ nation) with no
        // predicate — a cross product — so nothing should be generated.
        assert!(out.is_empty());
        assert_eq!(memo.group_count(), groups_before);
    }

    #[test]
    fn rule_masks_are_distinct() {
        assert_ne!(Rule::JoinCommute.mask(), Rule::JoinAssociateLeft.mask());
        assert_eq!(Rule::ALL.len(), 2);
        assert_eq!(Rule::JoinCommute.name(), "JoinCommute");
    }

    #[test]
    fn transient_rule_memory_is_released() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = bind(
            &cat,
            "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        memo.insert_plan(&plan, &est, &mut mem).unwrap();
        let before_used = mem.used_bytes();
        let join = top_join_expr(&memo);
        apply(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        // Live memory grew only by the new expression, not the binding scratch.
        assert_eq!(mem.used_bytes(), before_used + sizes::LOGICAL_EXPR_BYTES);
        // But the peak saw the transient binding.
        assert!(mem.peak_bytes() >= before_used + sizes::RULE_BINDING_BYTES);
    }
}
