//! Memo invariants over random connected join graphs.
//!
//! Each case draws a chain, star or cycle over 2–10 tables of the TPC-H or
//! SALES catalog (tables may repeat under distinct aliases, join columns are
//! random), lists the tables in a random textual order, explores the bound
//! plan in the memo with both rules, and checks that:
//!
//! * every group's binding set equals the union of its leaves' bindings,
//!   whichever of its expressions is followed;
//! * no two memo expressions share (operator, children);
//! * no rule-created join is a cross product, and every join predicate
//!   connects the join's two inputs;
//! * compiling the query twice gives identical statistics and plans.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet, VecDeque};
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_optimizer::cardinality::CardinalityEstimator;
use throttledb_optimizer::logical::{JoinKind, LogicalOp};
use throttledb_optimizer::memo::{GroupId, Memo, MemoOp};
use throttledb_optimizer::rules::{apply_rule, Rule};
use throttledb_optimizer::{Binder, CompilationMemory, Optimizer};
use throttledb_sqlparse::parse;

/// Rule applications explored per case (the spaces here are far smaller).
const EXPLORATION_LIMIT: usize = 20_000;

/// SplitMix64 stream for the case's table, column and order choices.
struct Picks(u64);

impl Picks {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// A connected join query over `n` tables: `shape` 0 is a chain, 1 a star,
/// 2 a cycle.
fn join_query(catalog: &Catalog, shape: u8, n: usize, seed: u64) -> String {
    let mut picks = Picks(seed);
    let tables: Vec<_> = catalog.tables().collect();
    let chosen: Vec<_> = (0..n).map(|_| tables[picks.below(tables.len())]).collect();
    let edges: Vec<(usize, usize)> = match shape {
        0 => (1..n).map(|i| (i - 1, i)).collect(),
        1 => (1..n).map(|i| (0, i)).collect(),
        // Two tables have a single edge, not a two-edge cycle.
        _ => (0..n)
            .map(|i| (i, (i + 1) % n))
            .take(if n > 2 { n } else { 1 })
            .collect(),
    };
    let mut column = |i: usize| {
        let cols = &chosen[i].columns;
        format!("t{i}.{}", cols[picks.below(cols.len())].name)
    };
    let predicates: Vec<String> = edges
        .iter()
        .map(|&(i, j)| format!("{} = {}", column(i), column(j)))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, picks.below(i + 1));
    }
    let from: Vec<String> = order
        .iter()
        .map(|&i| format!("{} t{i}", chosen[i].name))
        .collect();
    format!(
        "SELECT COUNT(*) FROM {} WHERE {}",
        from.join(", "),
        predicates.join(" AND ")
    )
}

/// Binding names under `group`, following its first expression down to
/// the `Get` leaves.
fn leaf_bindings(memo: &Memo, group: GroupId) -> BTreeSet<String> {
    let first = memo.expr(memo.group(group).exprs[0]);
    expr_leaf_bindings(memo, first.op, first.children())
}

fn expr_leaf_bindings(memo: &Memo, op: MemoOp, children: &[GroupId]) -> BTreeSet<String> {
    if let MemoOp::Base(id) = op {
        if let LogicalOp::Get { binding, .. } = memo.base_op(id) {
            return BTreeSet::from([binding.clone()]);
        }
    }
    children
        .iter()
        .flat_map(|c| leaf_bindings(memo, *c))
        .collect()
}

fn group_binding_names(memo: &Memo, group: GroupId) -> BTreeSet<String> {
    memo.binding_names(memo.group(group).bindings)
        .map(str::to_string)
        .collect()
}

fn check_case(catalog: &Catalog, sql: &str) {
    let stmt = parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let plan = Binder::new(catalog).bind(&stmt).expect("binds");
    let est = CardinalityEstimator::new(catalog);
    let mut mem = CompilationMemory::unlimited();
    let mut memo = Memo::new();
    memo.insert_plan(&plan, &est, &mut mem)
        .expect("fits the bitset");
    let initial_exprs = memo.expr_count();

    let mut queue: VecDeque<_> = memo.expr_ids().collect();
    let mut applications = 0;
    while let Some(expr) = queue.pop_front() {
        for rule in Rule::ALL {
            apply_rule(rule, &mut memo, expr, &est, &mut mem, &mut queue);
            applications += 1;
        }
        if applications >= EXPLORATION_LIMIT {
            break;
        }
    }

    let mut seen = HashSet::new();
    for id in memo.expr_ids() {
        let e = memo.expr(id);
        assert_eq!(
            expr_leaf_bindings(&memo, e.op, e.children()),
            group_binding_names(&memo, e.group),
            "{sql}: expression {id:?} disagrees with its group's bindings"
        );
        let op = match e.op {
            MemoOp::Join { kind, preds } => {
                let left = group_binding_names(&memo, e.children()[0]);
                let right = group_binding_names(&memo, e.children()[1]);
                let predicates = memo.join_predicates(preds);
                if id.0 as usize >= initial_exprs {
                    assert_eq!(kind, JoinKind::Inner);
                    assert!(
                        !predicates.is_empty(),
                        "{sql}: a rule built a cross product"
                    );
                }
                for p in &predicates {
                    let (l, r) = (&p.left.binding, &p.right.binding);
                    assert!(
                        (left.contains(l) && right.contains(r))
                            || (left.contains(r) && right.contains(l)),
                        "{sql}: predicate {p} does not connect {left:?} with {right:?}"
                    );
                }
                LogicalOp::Join { kind, predicates }
            }
            MemoOp::Base(op) => memo.base_op(op).clone(),
        };
        assert!(
            seen.insert((op, e.children().to_vec())),
            "{sql}: expression {id:?} duplicates another"
        );
    }

    let optimizer = Optimizer::new(catalog);
    let a = optimizer.optimize(&stmt).expect("compiles");
    let b = optimizer.optimize(&stmt).expect("compiles");
    assert_eq!(a.stats, b.stats, "{sql}");
    assert_eq!(
        a.plan.total_cost.total().to_bits(),
        b.plan.total_cost.total().to_bits(),
        "{sql}"
    );
    assert_eq!(a.plan, b.plan, "{sql}");
}

proptest! {
    #[test]
    fn memo_invariants_hold_on_random_join_graphs(
        shape in 0u8..3,
        n in 2usize..11,
        sales in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let catalog = if sales {
            sales_schema(SalesScale::paper())
        } else {
            tpch_schema(1.0)
        };
        check_case(&catalog, &join_query(&catalog, shape, n, seed));
    }
}
