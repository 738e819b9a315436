//! The abstract syntax tree for the SQL subset.

use serde::{Deserialize, Serialize};

/// Scalar literals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Numeric literal (all numbers are carried as f64).
    Number(f64),
    /// String literal.
    String(String),
    /// NULL.
    Null,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `=` equality comparison.
    Eq,
    /// `<>` / `!=` inequality comparison.
    NotEq,
    /// `<` less-than comparison.
    Lt,
    /// `<=` less-than-or-equal comparison.
    LtEq,
    /// `>` greater-than comparison.
    Gt,
    /// `>=` greater-than-or-equal comparison.
    GtEq,
    /// Logical `AND`.
    And,
    /// Logical `OR`.
    Or,
    /// Arithmetic `+`.
    Add,
    /// Arithmetic `-`.
    Sub,
    /// Arithmetic `*`.
    Mul,
    /// Arithmetic `/`.
    Div,
    /// `LIKE` pattern match.
    Like,
}

impl BinaryOp {
    /// True for comparison operators that produce a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
                | BinaryOp::Like
        )
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateFunc {
    /// `SUM(expr)`.
    Sum,
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A (possibly qualified) column reference.
    Column {
        /// Table name or alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal value.
    Literal(Literal),
    /// `*` — only valid inside `COUNT(*)` or as the lone select item.
    Wildcard,
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// An aggregate function call.
    Aggregate {
        /// Which aggregate.
        func: AggregateFunc,
        /// Argument (may be [`Expr::Wildcard`] for `COUNT(*)`).
        arg: Box<Expr>,
        /// Whether `DISTINCT` was specified.
        distinct: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// The probed expression.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn column(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_ascii_lowercase(),
        }
    }

    /// Shorthand for a qualified column reference.
    pub fn qualified(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
        }
    }

    /// Shorthand for a numeric literal.
    pub fn number(n: f64) -> Expr {
        Expr::Literal(Literal::Number(n))
    }

    /// Shorthand for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Split a conjunction into its AND-ed conjuncts (a single non-AND
    /// expression yields itself).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Collect every column referenced anywhere in this expression, as
    /// `(qualifier, name)` pairs in depth-first order.
    pub fn referenced_columns(&self) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier.clone(), name.clone()));
            }
        });
        out
    }

    /// True when the expression (or any sub-expression) is an aggregate.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Aggregate { .. }) {
                found = true;
            }
        });
        found
    }

    /// Number of nodes in the expression tree (used by the compile-memory
    /// model: bigger predicates = more optimizer work).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Visit every [`Literal`] in the expression mutably, depth-first in
    /// the same order as [`Expr::walk`].
    pub fn for_each_literal_mut(&mut self, f: &mut impl FnMut(&mut Literal)) {
        match self {
            Expr::Literal(lit) => f(lit),
            Expr::Column { .. } | Expr::Wildcard => {}
            Expr::Binary { left, right, .. } => {
                left.for_each_literal_mut(f);
                right.for_each_literal_mut(f);
            }
            Expr::Unary { expr, .. } => expr.for_each_literal_mut(f),
            Expr::Aggregate { arg, .. } => arg.for_each_literal_mut(f),
            Expr::InList { expr, list, .. } => {
                expr.for_each_literal_mut(f);
                for e in list {
                    e.for_each_literal_mut(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.for_each_literal_mut(f);
                low.for_each_literal_mut(f);
                high.for_each_literal_mut(f);
            }
            Expr::IsNull { expr, .. } => expr.for_each_literal_mut(f),
        }
    }

    /// Visit every node depth-first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Aggregate { arg, .. } => arg.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Column { .. } | Expr::Literal(_) | Expr::Wildcard => {}
        }
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// A base-table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the rest of the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// Join flavours supported by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
    /// RIGHT OUTER JOIN.
    Right,
}

/// One `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinClause {
    /// Join flavour.
    pub kind: JoinKind,
    /// The joined table.
    pub table: TableRef,
    /// The ON predicate.
    pub on: Expr,
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderItem {
    /// Ordering expression.
    pub expr: Expr,
    /// True for DESC.
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectStatement {
    /// Whether `SELECT DISTINCT` was used.
    pub distinct: bool,
    /// The select list.
    pub items: Vec<SelectItem>,
    /// Base tables of the FROM clause (comma-separated implicit joins).
    pub from: Vec<TableRef>,
    /// Explicit JOIN clauses, in textual order.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl SelectStatement {
    /// Total number of base-table references (FROM entries plus JOINs).
    /// A SALES query has 16–21 of these; an OLTP point query 1–2.
    pub fn table_count(&self) -> usize {
        self.from.len() + self.joins.len()
    }

    /// Number of join edges (explicit ON clauses plus implicit comma joins).
    pub fn join_count(&self) -> usize {
        self.table_count().saturating_sub(1)
    }

    /// All table references, FROM entries first then JOINed tables.
    pub fn all_tables(&self) -> Vec<&TableRef> {
        self.from
            .iter()
            .chain(self.joins.iter().map(|j| &j.table))
            .collect()
    }

    /// True when the query computes any aggregate or has a GROUP BY.
    pub fn is_aggregation(&self) -> bool {
        !self.group_by.is_empty() || self.items.iter().any(|i| i.expr.contains_aggregate())
    }

    /// Visit every [`Literal`] in the statement mutably, in deterministic
    /// clause order: select items, join conditions, WHERE, GROUP BY,
    /// HAVING, ORDER BY (and depth-first within each expression).
    ///
    /// The workload uniquifier perturbs numeric literals through this
    /// visitor, and the engine's submission path caches each template's
    /// numeric literals in this order to make the same draws without
    /// rendering — so the visit order is part of the deterministic-replay
    /// contract: it fixes the RNG draw order of every simulated submission.
    pub fn for_each_literal_mut(&mut self, f: &mut impl FnMut(&mut Literal)) {
        for item in &mut self.items {
            item.expr.for_each_literal_mut(f);
        }
        for join in &mut self.joins {
            join.on.for_each_literal_mut(f);
        }
        if let Some(w) = &mut self.where_clause {
            w.for_each_literal_mut(f);
        }
        for g in &mut self.group_by {
            g.for_each_literal_mut(f);
        }
        if let Some(h) = &mut self.having {
            h.for_each_literal_mut(f);
        }
        for o in &mut self.order_by {
            o.expr.for_each_literal_mut(f);
        }
    }

    /// Rough size of the statement in AST nodes; the compile-memory model
    /// uses it as one input ("memory as a function of the size of the query
    /// tree structure").
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        for i in &self.items {
            n += i.expr.node_count();
        }
        for j in &self.joins {
            n += 1 + j.on.node_count();
        }
        n += self.from.len();
        if let Some(w) = &self.where_clause {
            n += w.node_count();
        }
        for g in &self.group_by {
            n += g.node_count();
        }
        if let Some(h) = &self.having {
            n += h.node_count();
        }
        for o in &self.order_by {
            n += o.expr.node_count();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SelectStatement {
        SelectStatement {
            distinct: false,
            items: vec![SelectItem {
                expr: Expr::Aggregate {
                    func: AggregateFunc::Sum,
                    arg: Box::new(Expr::qualified("f", "amount")),
                    distinct: false,
                },
                alias: Some("total".into()),
            }],
            from: vec![TableRef {
                table: "fact_sales".into(),
                alias: Some("f".into()),
            }],
            joins: vec![JoinClause {
                kind: JoinKind::Inner,
                table: TableRef {
                    table: "dim_date".into(),
                    alias: Some("d".into()),
                },
                on: Expr::binary(
                    Expr::qualified("f", "date_id"),
                    BinaryOp::Eq,
                    Expr::qualified("d", "date_key"),
                ),
            }],
            where_clause: Some(Expr::binary(
                Expr::qualified("d", "calendar_year"),
                BinaryOp::GtEq,
                Expr::number(2004.0),
            )),
            group_by: vec![Expr::qualified("d", "calendar_year")],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn table_and_join_counts() {
        let s = sample();
        assert_eq!(s.table_count(), 2);
        assert_eq!(s.join_count(), 1);
        assert_eq!(s.all_tables().len(), 2);
        assert!(s.is_aggregation());
    }

    #[test]
    fn conjuncts_split_and_chains() {
        let e = Expr::binary(
            Expr::binary(Expr::column("a"), BinaryOp::Eq, Expr::number(1.0)),
            BinaryOp::And,
            Expr::binary(
                Expr::binary(Expr::column("b"), BinaryOp::Eq, Expr::number(2.0)),
                BinaryOp::And,
                Expr::binary(Expr::column("c"), BinaryOp::Eq, Expr::number(3.0)),
            ),
        );
        assert_eq!(e.conjuncts().len(), 3);
        let single = Expr::binary(Expr::column("a"), BinaryOp::Or, Expr::column("b"));
        assert_eq!(single.conjuncts().len(), 1);
    }

    #[test]
    fn referenced_columns_are_collected() {
        let s = sample();
        let cols = s.where_clause.as_ref().unwrap().referenced_columns();
        assert_eq!(
            cols,
            vec![(Some("d".to_string()), "calendar_year".to_string())]
        );
    }

    #[test]
    fn aggregate_detection() {
        assert!(sample().items[0].expr.contains_aggregate());
        assert!(!Expr::column("x").contains_aggregate());
    }

    #[test]
    fn node_count_is_positive_and_monotone() {
        let s = sample();
        let n = s.node_count();
        assert!(n > 5);
        let small = Expr::column("a").node_count();
        assert_eq!(small, 1);
        assert!(
            Expr::binary(Expr::column("a"), BinaryOp::Eq, Expr::number(1.0)).node_count() > small
        );
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef {
            table: "fact_sales".into(),
            alias: Some("f".into()),
        };
        assert_eq!(t.binding_name(), "f");
        let t = TableRef {
            table: "fact_sales".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), "fact_sales");
    }

    #[test]
    fn comparison_classification() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(BinaryOp::Like.is_comparison());
        assert!(!BinaryOp::And.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
    }
}
