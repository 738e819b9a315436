//! The memo: groups of logically equivalent expressions.
//!
//! The memo is where compilation memory goes. Every group and every group
//! expression inserted charges the compilation's
//! [`crate::memory::CompilationMemory`] account, so the
//! number of alternatives explored maps directly to bytes — "the memory
//! consumed during optimization is closely related to the number of
//! considered alternatives."
//!
//! Those charges are the [`sizes`] model constants, not the bytes the
//! structures below really occupy, so the memo is free to be compact. When a
//! bound plan enters it, names are interned once per compilation: each
//! query binding becomes one bit of a `u64` set, each column a small id
//! whose distinct-value count is read from the catalog once, each ordered
//! join-predicate list a [`PredsId`], and every other operator an
//! [`OpId`]. Expressions are then small `Copy` values, and duplicate
//! detection hashes a few integers.

use crate::cardinality::{join_rows_by_ndv, CardinalityEstimator};
use crate::cost::Cost;
use crate::error::OptimizerError;
use crate::logical::{ColumnRef, JoinPredicate, LogicalOp, LogicalPlan};
use crate::memory::{sizes, CompilationMemory};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use throttledb_sqlparse::JoinKind;

/// Most distinct query bindings one compilation supports: a group's
/// bindings are a `u64` bitset.
const MAX_BINDINGS: usize = 64;

/// Identifies a memo group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupId(pub u32);

/// Identifies a logical expression within the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ExprId(pub u32);

/// An interned column reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ColumnId(u32);

/// An equi-join condition over interned columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct JoinPred {
    /// Column from the left input.
    pub(crate) left: ColumnId,
    /// Column from the right input.
    pub(crate) right: ColumnId,
}

impl JoinPred {
    /// Swap the sides.
    pub(crate) fn flipped(self) -> JoinPred {
        JoinPred {
            left: self.right,
            right: self.left,
        }
    }
}

/// An interned, ordered list of join predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredsId(u32);

/// An interned non-join operator (a `Get` or a unary operator of the bound
/// plan; rules never create these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(u32);

/// A memo operator: a join over an interned predicate list, or any other
/// interned logical operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoOp {
    /// A join.
    Join {
        /// Inner/left/right.
        kind: JoinKind,
        /// Equi-join conditions.
        preds: PredsId,
    },
    /// Any other operator, see [`Memo::base_op`].
    Base(OpId),
}

impl MemoOp {
    /// True for joins (the target of the reordering rules).
    pub fn is_join(self) -> bool {
        matches!(self, MemoOp::Join { .. })
    }
}

/// Child slot filler for operators with fewer than two children.
const NO_GROUP: GroupId = GroupId(u32::MAX);

/// A logical expression stored in the memo: an operator over child groups.
#[derive(Debug, Clone, Copy)]
pub struct MemoExpr {
    /// This expression's id.
    pub id: ExprId,
    /// The group it belongs to.
    pub group: GroupId,
    /// The operator.
    pub op: MemoOp,
    children: [GroupId; 2],
    arity: u8,
    /// Bitmask of transformation rules already applied to this expression.
    pub rules_applied: u32,
}

impl MemoExpr {
    /// Child groups, one per operator input.
    pub fn children(&self) -> &[GroupId] {
        &self.children[..usize::from(self.arity)]
    }
}

/// How a group's winner implements its logical expression. The
/// `String`-named [`crate::PhysicalOp`] is built from this only when the
/// final plan is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// Sequential scan of a `Get`.
    TableScan,
    /// Index seek of a `Get` through the table's index at this position.
    IndexSeek(u32),
    /// Hash join; the right child is the build side.
    HashJoin,
    /// Nested-loop join.
    NestedLoopJoin,
    /// The one physical form of a unary operator.
    Direct,
}

/// The best physical implementation found for a group.
#[derive(Debug, Clone, Copy)]
pub struct Winner {
    /// The logical expression implemented (its children are the winner's).
    pub expr: ExprId,
    /// The implementation chosen for it.
    pub implementation: Implementation,
    /// Cost of this operator alone.
    pub local_cost: Cost,
    /// Cost of the whole subtree.
    pub total_cost: Cost,
    /// Execution memory this operator needs.
    pub memory_bytes: u64,
}

/// A memo group: the set of logically equivalent expressions plus shared
/// logical properties (cardinality, width, covered bindings) and the winner.
#[derive(Debug, Clone)]
pub struct Group {
    /// Group id.
    pub id: GroupId,
    /// Member logical expressions.
    pub exprs: Vec<ExprId>,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub row_width: u32,
    /// Query bindings (table aliases) covered by this group, one bit per
    /// binding (see [`Memo::binding_names`]).
    pub bindings: u64,
    /// Best implementation found so far, if the group has been optimized.
    pub winner: Option<Winner>,
}

/// Multiply-rotate hasher for the memo's small integer keys (the FxHash
/// scheme): one rotate, xor and multiply per word.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.add(u64::from(*b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// An interned column: its name, its binding's bit and its distinct-value
/// count.
#[derive(Debug, Clone)]
struct Column {
    name: ColumnRef,
    binding: u64,
    ndv: f64,
}

/// The memo structure.
#[derive(Debug, Default)]
pub struct Memo {
    groups: Vec<Group>,
    exprs: Vec<MemoExpr>,
    dedup: WordMap<(MemoOp, [GroupId; 2]), ExprId>,
    binding_names: Vec<String>,
    columns: Vec<Column>,
    column_ids: HashMap<ColumnRef, ColumnId>,
    pred_lists: Vec<Box<[JoinPred]>>,
    pred_ids: WordMap<Box<[JoinPred]>, PredsId>,
    pred_scratch: Vec<JoinPred>,
    base_ops: Vec<(LogicalOp, u64)>,
    base_op_ids: HashMap<LogicalOp, OpId>,
}

impl Memo {
    /// An empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of logical expressions across all groups.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Access a group.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    /// Mutable access to a group.
    pub fn group_mut(&mut self, id: GroupId) -> &mut Group {
        &mut self.groups[id.0 as usize]
    }

    /// Access an expression.
    pub fn expr(&self, id: ExprId) -> &MemoExpr {
        &self.exprs[id.0 as usize]
    }

    /// Mutable access to an expression.
    pub fn expr_mut(&mut self, id: ExprId) -> &mut MemoExpr {
        &mut self.exprs[id.0 as usize]
    }

    /// Iterate all expression ids.
    pub fn expr_ids(&self) -> impl Iterator<Item = ExprId> {
        (0..self.exprs.len() as u32).map(ExprId)
    }

    /// Iterate all group ids.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.groups.len() as u32).map(GroupId)
    }

    /// The predicates of an interned list.
    pub(crate) fn preds(&self, id: PredsId) -> &[JoinPred] {
        &self.pred_lists[id.0 as usize]
    }

    /// The logical operator behind an interned non-join operator.
    pub fn base_op(&self, id: OpId) -> &LogicalOp {
        &self.base_ops[id.0 as usize].0
    }

    /// The bit of the binding an interned column belongs to.
    pub(crate) fn binding_mask(&self, column: ColumnId) -> u64 {
        self.columns[column.0 as usize].binding
    }

    /// Distinct values of an interned column, as read from the catalog.
    fn distinct_values(&self, column: ColumnId) -> f64 {
        self.columns[column.0 as usize].ndv
    }

    /// The binding names covered by a binding set, in bit order.
    pub fn binding_names(&self, bindings: u64) -> impl Iterator<Item = &str> {
        self.binding_names
            .iter()
            .enumerate()
            .filter(move |(bit, _)| bindings & (1 << bit) != 0)
            .map(|(_, name)| name.as_str())
    }

    /// An interned predicate list as named [`JoinPredicate`]s.
    pub fn join_predicates(&self, id: PredsId) -> Vec<JoinPredicate> {
        let name = |c: ColumnId| self.columns[c.0 as usize].name.clone();
        self.preds(id)
            .iter()
            .map(|p| JoinPredicate {
                left: name(p.left),
                right: name(p.right),
            })
            .collect()
    }

    /// Recursively insert a plan tree, creating one group per node (reusing
    /// existing groups when an identical expression already exists).
    /// Returns the root group, or [`OptimizerError::Unsupported`] when the
    /// plan has more than 64 bindings (one `u64` bit each).
    pub fn insert_plan(
        &mut self,
        plan: &LogicalPlan,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> Result<GroupId, OptimizerError> {
        let mut children = [NO_GROUP; 2];
        for (slot, child) in children.iter_mut().zip(&plan.children) {
            *slot = self.insert_plan(child, est, mem)?;
        }
        let op = self.intern_op(&plan.op, est)?;
        let arity = plan.children.len().min(2);
        Ok(self.insert_expr(op, &children[..arity], est, mem).0)
    }

    /// Intern a logical operator: its bindings, columns and predicates get
    /// the compilation's small ids.
    pub(crate) fn intern_op(
        &mut self,
        op: &LogicalOp,
        est: &CardinalityEstimator<'_>,
    ) -> Result<MemoOp, OptimizerError> {
        if let LogicalOp::Join { kind, predicates } = op {
            let mut preds = Vec::with_capacity(predicates.len());
            for p in predicates {
                preds.push(JoinPred {
                    left: self.intern_column(&p.left, est)?,
                    right: self.intern_column(&p.right, est)?,
                });
            }
            return Ok(MemoOp::Join {
                kind: *kind,
                preds: self.intern_preds(&preds),
            });
        }
        if let Some(id) = self.base_op_ids.get(op) {
            return Ok(MemoOp::Base(*id));
        }
        let bindings = match op {
            LogicalOp::Get { binding, .. } => self.intern_binding(binding)?,
            _ => 0,
        };
        let id = OpId(self.base_ops.len() as u32);
        self.base_ops.push((op.clone(), bindings));
        self.base_op_ids.insert(op.clone(), id);
        Ok(MemoOp::Base(id))
    }

    /// The bit of a binding name, assigning the next free one to a new name.
    fn intern_binding(&mut self, name: &str) -> Result<u64, OptimizerError> {
        let bit = match self.binding_names.iter().position(|b| b == name) {
            Some(bit) => bit,
            None if self.binding_names.len() < MAX_BINDINGS => {
                self.binding_names.push(name.to_string());
                self.binding_names.len() - 1
            }
            None => {
                return Err(OptimizerError::Unsupported(format!(
                    "more than {MAX_BINDINGS} table bindings in one query"
                )))
            }
        };
        Ok(1 << bit)
    }

    fn intern_column(
        &mut self,
        column: &ColumnRef,
        est: &CardinalityEstimator<'_>,
    ) -> Result<ColumnId, OptimizerError> {
        if let Some(id) = self.column_ids.get(column) {
            return Ok(*id);
        }
        let binding = self.intern_binding(&column.binding)?;
        let id = ColumnId(self.columns.len() as u32);
        self.columns.push(Column {
            name: column.clone(),
            binding,
            ndv: est.distinct_values(column),
        });
        self.column_ids.insert(column.clone(), id);
        Ok(id)
    }

    /// Intern an ordered predicate list.
    fn intern_preds(&mut self, preds: &[JoinPred]) -> PredsId {
        if let Some(id) = self.pred_ids.get(preds) {
            return *id;
        }
        let id = PredsId(self.pred_lists.len() as u32);
        self.pred_lists.push(preds.into());
        self.pred_ids.insert(preds.into(), id);
        id
    }

    /// Intern the predicate list `fill` writes, reusing one scratch buffer
    /// across calls; `fill` may read the memo.
    pub(crate) fn intern_preds_with(
        &mut self,
        fill: impl FnOnce(&Memo, &mut Vec<JoinPred>),
    ) -> PredsId {
        let mut buf = std::mem::take(&mut self.pred_scratch);
        buf.clear();
        fill(self, &mut buf);
        let id = self.intern_preds(&buf);
        self.pred_scratch = buf;
        id
    }

    /// Insert an expression; if an identical one exists, return its group.
    /// Otherwise create a new group for it. Returns the group and, when the
    /// expression was new, its id.
    pub fn insert_expr(
        &mut self,
        op: MemoOp,
        children: &[GroupId],
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> (GroupId, Option<ExprId>) {
        let key = (op, child_slots(children));
        if let Some(existing) = self.dedup.get(&key) {
            return (self.exprs[existing.0 as usize].group, None);
        }
        let group_id = GroupId(self.groups.len() as u32);
        let (rows, row_width, bindings) = self.derive_properties(op, children, est);
        self.groups.push(Group {
            id: group_id,
            exprs: Vec::new(),
            rows,
            row_width,
            bindings,
            winner: None,
        });
        mem.charge(sizes::GROUP_BYTES);
        let expr_id = self.push_expr(group_id, key, children.len(), mem);
        (group_id, Some(expr_id))
    }

    /// Add an alternative expression to an *existing* group (the result of a
    /// transformation rule). Returns `Some(expr)` if it was new, `None` if an
    /// identical expression already existed anywhere in the memo.
    pub fn add_expr_to_group(
        &mut self,
        group: GroupId,
        op: MemoOp,
        children: &[GroupId],
        mem: &mut CompilationMemory,
    ) -> Option<ExprId> {
        let key = (op, child_slots(children));
        if self.dedup.contains_key(&key) {
            return None;
        }
        Some(self.push_expr(group, key, children.len(), mem))
    }

    fn push_expr(
        &mut self,
        group: GroupId,
        key: (MemoOp, [GroupId; 2]),
        arity: usize,
        mem: &mut CompilationMemory,
    ) -> ExprId {
        let expr_id = ExprId(self.exprs.len() as u32);
        self.exprs.push(MemoExpr {
            id: expr_id,
            group,
            op: key.0,
            children: key.1,
            arity: arity as u8,
            rules_applied: 0,
        });
        self.groups[group.0 as usize].exprs.push(expr_id);
        self.dedup.insert(key, expr_id);
        mem.charge(sizes::LOGICAL_EXPR_BYTES);
        expr_id
    }

    /// Derive a new group's logical properties from its defining expression.
    fn derive_properties(
        &self,
        op: MemoOp,
        children: &[GroupId],
        est: &CardinalityEstimator<'_>,
    ) -> (f64, u32, u64) {
        let (op, get_bindings) = match op {
            MemoOp::Join { preds, .. } => {
                let left = self.group(children[0]);
                let right = self.group(children[1]);
                let ndvs = self
                    .preds(preds)
                    .iter()
                    .map(|p| (self.distinct_values(p.left), self.distinct_values(p.right)));
                return (
                    join_rows_by_ndv(left.rows, right.rows, ndvs),
                    left.row_width + right.row_width,
                    left.bindings | right.bindings,
                );
            }
            MemoOp::Base(id) => {
                let (op, bindings) = &self.base_ops[id.0 as usize];
                (op, *bindings)
            }
        };
        let Some(child) = children.first().map(|c| self.group(*c)) else {
            let row_width = match op {
                LogicalOp::Get { table, .. } => est.table_row_width(table),
                _ => 0,
            };
            return (est.operator_rows(op, &[]), row_width, get_bindings);
        };
        let rows = est.operator_rows(op, &[child.rows]);
        let row_width = match op {
            LogicalOp::Aggregate {
                group_by,
                aggregate_count,
            } => (group_by.len() as u32 + aggregate_count) * 8 + 16,
            LogicalOp::Project { column_count } => {
                (*column_count * 8 + 8).min(child.row_width.max(8))
            }
            _ => child.row_width,
        };
        (rows, row_width, child.bindings)
    }

    /// Clear all winners (used before a re-costing pass after exploration
    /// added new alternatives).
    pub fn clear_winners(&mut self) {
        for g in &mut self.groups {
            g.winner = None;
        }
    }
}

/// Children padded to the fixed two-slot key shape.
fn child_slots(children: &[GroupId]) -> [GroupId; 2] {
    let mut slots = [NO_GROUP; 2];
    slots[..children.len()].copy_from_slice(children);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{ColumnRef, JoinPredicate};
    use throttledb_catalog::tpch_schema;
    use throttledb_sqlparse::JoinKind;

    fn get_op(table: &str) -> LogicalOp {
        LogicalOp::Get {
            table: table.into(),
            binding: table.into(),
            predicates: vec![],
        }
    }

    fn join_op(l: &str, lc: &str, r: &str, rc: &str) -> LogicalOp {
        LogicalOp::Join {
            kind: JoinKind::Inner,
            predicates: vec![JoinPredicate {
                left: ColumnRef::new(l, l, lc),
                right: ColumnRef::new(r, r, rc),
            }],
        }
    }

    fn insert(
        memo: &mut Memo,
        op: &LogicalOp,
        children: &[GroupId],
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> (GroupId, Option<ExprId>) {
        let op = memo.intern_op(op, est).unwrap();
        memo.insert_expr(op, children, est, mem)
    }

    #[test]
    fn insert_plan_creates_one_group_per_node() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let plan = LogicalPlan::binary(
            join_op("orders", "o_custkey", "customer", "c_custkey"),
            LogicalPlan::leaf(get_op("orders")),
            LogicalPlan::leaf(get_op("customer")),
        );
        let root = memo.insert_plan(&plan, &est, &mut mem).unwrap();
        assert_eq!(memo.group_count(), 3);
        assert_eq!(memo.expr_count(), 3);
        assert_eq!(memo.group(root).bindings.count_ones(), 2);
        let names: Vec<_> = memo.binding_names(memo.group(root).bindings).collect();
        assert_eq!(names, ["orders", "customer"]);
        assert!(mem.used_bytes() >= 3 * sizes::GROUP_BYTES);
    }

    #[test]
    fn duplicate_expressions_are_not_reinserted() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let (g1, created1) = insert(&mut memo, &get_op("orders"), &[], &est, &mut mem);
        let (g2, created2) = insert(&mut memo, &get_op("orders"), &[], &est, &mut mem);
        assert!(created1.is_some());
        assert!(created2.is_none());
        assert_eq!(g1, g2);
        assert_eq!(memo.expr_count(), 1);
    }

    #[test]
    fn add_expr_to_group_dedups_alternatives() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let (go, _) = insert(&mut memo, &get_op("orders"), &[], &est, &mut mem);
        let (gc, _) = insert(&mut memo, &get_op("customer"), &[], &est, &mut mem);
        let join = join_op("orders", "o_custkey", "customer", "c_custkey");
        let (gj, _) = insert(&mut memo, &join, &[go, gc], &est, &mut mem);
        // The commuted alternative is new...
        let flipped = memo
            .intern_op(
                &join_op("customer", "c_custkey", "orders", "o_custkey"),
                &est,
            )
            .unwrap();
        let alt = memo.add_expr_to_group(gj, flipped, &[gc, go], &mut mem);
        assert!(alt.is_some());
        // ...but adding it again is a no-op.
        let again = memo.add_expr_to_group(gj, flipped, &[gc, go], &mut mem);
        assert!(again.is_none());
        assert_eq!(memo.group(gj).exprs.len(), 2);
        assert_eq!(memo.group_count(), 3, "no extra group for the alternative");
    }

    #[test]
    fn interning_is_by_value_and_round_trips_names() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut memo = Memo::new();
        let join = join_op("orders", "o_custkey", "customer", "c_custkey");
        let a = memo.intern_op(&join, &est).unwrap();
        let b = memo.intern_op(&join, &est).unwrap();
        assert_eq!(a, b);
        let MemoOp::Join { preds, .. } = a else {
            panic!("a join interns as a join")
        };
        let LogicalOp::Join { predicates, .. } = &join else {
            unreachable!()
        };
        assert_eq!(&memo.join_predicates(preds), predicates);
        let p = memo.preds(preds)[0];
        assert_ne!(memo.binding_mask(p.left), memo.binding_mask(p.right));
        assert_eq!(
            memo.distinct_values(p.right),
            est.distinct_values(&predicates[0].right)
        );
        let get = memo.intern_op(&get_op("orders"), &est).unwrap();
        let MemoOp::Base(id) = get else {
            panic!("a get interns as a base operator")
        };
        assert_eq!(memo.base_op(id), &get_op("orders"));
    }

    #[test]
    fn more_than_max_bindings_is_unsupported() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut memo = Memo::new();
        for i in 0..MAX_BINDINGS {
            let op = LogicalOp::Get {
                table: "orders".into(),
                binding: format!("o{i}"),
                predicates: vec![],
            };
            memo.intern_op(&op, &est).unwrap();
        }
        let one_more = LogicalOp::Get {
            table: "orders".into(),
            binding: "overflow".into(),
            predicates: vec![],
        };
        assert!(matches!(
            memo.intern_op(&one_more, &est),
            Err(OptimizerError::Unsupported(_))
        ));
    }

    #[test]
    fn group_properties_reflect_statistics() {
        let cat = tpch_schema(1.0);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let (go, _) = insert(&mut memo, &get_op("orders"), &[], &est, &mut mem);
        let (gc, _) = insert(&mut memo, &get_op("customer"), &[], &est, &mut mem);
        assert_eq!(memo.group(go).rows, 1_500_000.0);
        assert_eq!(memo.group(gc).rows, 150_000.0);
        let join = join_op("orders", "o_custkey", "customer", "c_custkey");
        let (gj, _) = insert(&mut memo, &join, &[go, gc], &est, &mut mem);
        let j = memo.group(gj);
        // FK->PK join keeps the orders cardinality.
        assert!((j.rows - 1_500_000.0).abs() < 1.0);
        assert_eq!(
            j.row_width,
            memo.group(go).row_width + memo.group(gc).row_width
        );
    }

    #[test]
    fn memory_is_charged_per_group_and_expr() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        insert(&mut memo, &get_op("orders"), &[], &est, &mut mem);
        let one = mem.used_bytes();
        assert_eq!(one, sizes::GROUP_BYTES + sizes::LOGICAL_EXPR_BYTES);
        insert(&mut memo, &get_op("customer"), &[], &est, &mut mem);
        assert_eq!(mem.used_bytes(), 2 * one);
    }

    #[test]
    fn clear_winners_resets_all_groups() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let (g, e) = insert(&mut memo, &get_op("orders"), &[], &est, &mut mem);
        memo.group_mut(g).winner = Some(Winner {
            expr: e.unwrap(),
            implementation: Implementation::TableScan,
            local_cost: Cost::ZERO,
            total_cost: Cost::ZERO,
            memory_bytes: 0,
        });
        memo.clear_winners();
        assert!(memo.group(g).winner.is_none());
    }

    #[test]
    fn word_hasher_separates_small_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<WordHasher>::default();
        let hashes: std::collections::HashSet<u64> = (0u32..1000)
            .flat_map(|a| [(a, 0u32), (0, a)])
            .map(|k| build.hash_one(k))
            .collect();
        assert_eq!(hashes.len(), 1999, "(0, 0) is shared, all else distinct");
    }
}
