//! The load generator's query uniquifier.
//!
//! §5.1: "To simulate the large number of unique query compilations, our
//! load generator modifies each base query before it is submitted to the
//! database server to make it appear unique and to defeat plan-caching
//! features in the DBMS." We do the same: parse the template, perturb every
//! numeric literal by a small deterministic amount drawn from the client's
//! RNG, and re-render. The result is semantically near-identical but textually
//! unique, so a text-keyed plan cache always misses.
//!
//! Two entry points consume the exact same RNG draws:
//!
//! * [`Uniquifier::uniquify`] — parse, perturb, render to a fresh `String`
//!   (tests and one-off callers that want the SQL);
//! * [`Uniquifier::draw_perturbations`] — the engine's submission path. The
//!   engine never looks at the unique text: its plan cache is defeated by
//!   construction and is never consulted with text. So this path only makes
//!   the perturbation draws, from the numeric literals of one cached parse
//!   per template, and renders nothing. After the first submission of each
//!   template it allocates nothing, and it leaves the RNG stream — and
//!   therefore the simulation — exactly where the allocating path would.

use crate::catalog::TemplateId;
use std::fmt::Write as _;
use throttledb_sim::SimRng;
use throttledb_sqlparse::{parse, Literal};

/// 64-bit FNV-1a over `bytes` (cheap and stable; the trace plane's
/// digests build on it).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    hash.finish()
}

/// Incremental 64-bit FNV-1a: the streaming counterpart of [`fnv1a_64`]
/// (`Fnv64::new().update(b).finish() == fnv1a_64(b)` for any byte split).
/// The trace plane folds every encoded frame through one of these so a
/// multi-gigabyte trace gets a digest without ever being materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV offset basis (the empty-input digest).
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    /// The digest of everything folded so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Rewrites query templates into unique instances.
#[derive(Debug, Default, Clone)]
pub struct Uniquifier {
    /// Numeric literals of each template's parse in visit order, indexed
    /// by [`TemplateId`].
    literals: Vec<Option<Vec<f64>>>,
}

impl Uniquifier {
    /// Create a uniquifier.
    pub fn new() -> Self {
        Uniquifier::default()
    }

    /// Produce a unique instance of `template_sql`, using `rng` for the
    /// perturbations and `submission_id` as a guaranteed-unique tag.
    ///
    /// Panics if the template does not parse — templates are static assets
    /// and a non-parsing one is a bug, not an input condition.
    ///
    /// # Examples
    ///
    /// ```
    /// use throttledb_sim::SimRng;
    /// use throttledb_workload::Uniquifier;
    ///
    /// let template = "SELECT a FROM t WHERE b > 100 LIMIT 5";
    /// let mut rng = SimRng::seed_from_u64(7);
    /// let uniquifier = Uniquifier::new();
    ///
    /// // Two submissions of the same template differ textually (so a
    /// // text-keyed plan cache misses) but stay semantically close: the
    /// // numeric literals are nudged by at most a few percent.
    /// let first = uniquifier.uniquify(template, &mut rng, 0);
    /// let second = uniquifier.uniquify(template, &mut rng, 1);
    /// assert_ne!(first, second);
    /// assert!(first.contains("WHERE"));
    /// ```
    pub fn uniquify(&self, template_sql: &str, rng: &mut SimRng, submission_id: u64) -> String {
        let mut stmt = parse(template_sql).expect("workload templates must parse");
        stmt.for_each_literal_mut(&mut |lit| perturb_literal(lit, rng));
        // A trailing comment-free LIMIT-preserving tag is risky to express in
        // the SQL subset, so uniqueness is guaranteed by literal perturbation
        // plus, as a last resort, an extra predicate that is always true.
        let mut text = stmt.to_string();
        if text == template_sql {
            let _ = write!(text, " LIMIT {}", 1_000_000 + submission_id % 1_000);
        }
        text
    }

    /// Make exactly the RNG draws [`Uniquifier::uniquify`] would make for
    /// template `id` (whose text is `template_sql`), without building the
    /// unique text.
    ///
    /// Each cached literal goes through the same perturbation arithmetic
    /// as the allocating path, in the same visit order, so the draw count
    /// and every range match it draw for draw (verified by test) and no
    /// seeded simulation outcome changes.
    pub fn draw_perturbations(&mut self, id: TemplateId, template_sql: &str, rng: &mut SimRng) {
        let slot = id.index();
        if slot >= self.literals.len() {
            self.literals.resize_with(slot + 1, || None);
        }
        let literals = self.literals[slot].get_or_insert_with(|| numeric_literals(template_sql));
        for &n in literals.iter() {
            perturbed(n, rng);
        }
    }
}

/// The numeric literals of `sql`'s parse, in `for_each_literal_mut` order.
fn numeric_literals(sql: &str) -> Vec<f64> {
    let mut stmt = parse(sql).expect("workload templates must parse");
    let mut literals = Vec::new();
    stmt.for_each_literal_mut(&mut |lit| {
        if let Literal::Number(n) = lit {
            literals.push(*n);
        }
    });
    literals
}

/// Perturb a numeric literal in place; other literals draw nothing.
fn perturb_literal(lit: &mut Literal, rng: &mut SimRng) {
    if let Literal::Number(n) = lit {
        *n = perturbed(*n, rng);
    }
}

/// `n` nudged by up to ±3% (at least ±1) with one draw from `rng`, so
/// selectivities stay close to the template's but the text is unique.
fn perturbed(n: f64, rng: &mut SimRng) -> f64 {
    let magnitude = (n.abs() * 0.03).max(1.0);
    let delta = rng.uniform_f64(0.0, magnitude * 2.0) - magnitude;
    (n + delta).round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TemplateCatalog;
    use crate::templates::{oltp_templates, sales_templates, tpch_like_templates};
    use std::collections::HashSet;

    #[test]
    fn uniquified_queries_still_parse() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(7);
        for t in sales_templates().iter().chain(tpch_like_templates().iter()) {
            let unique = u.uniquify(&t.sql, &mut rng, 1);
            parse(&unique).unwrap_or_else(|e| panic!("{} uniquified does not parse: {e}", t.name));
        }
    }

    #[test]
    fn repeated_submissions_are_textually_distinct() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(11);
        let template = &sales_templates()[0].sql;
        let mut seen = HashSet::new();
        for i in 0..100 {
            seen.insert(u.uniquify(template, &mut rng, i));
        }
        assert!(
            seen.len() >= 95,
            "at least 95/100 submissions should be unique, got {}",
            seen.len()
        );
    }

    #[test]
    fn structure_is_preserved() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(13);
        let template = &sales_templates()[2].sql;
        let base = parse(template).unwrap();
        let unique = parse(&u.uniquify(template, &mut rng, 0)).unwrap();
        assert_eq!(base.join_count(), unique.join_count());
        assert_eq!(base.items.len(), unique.items.len());
        assert_eq!(base.group_by.len(), unique.group_by.len());
    }

    #[test]
    fn is_deterministic_per_seed() {
        let u = Uniquifier::new();
        let template = &tpch_like_templates()[1].sql;
        let a = u.uniquify(template, &mut SimRng::seed_from_u64(5), 3);
        let b = u.uniquify(template, &mut SimRng::seed_from_u64(5), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn literal_free_query_still_becomes_unique() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(17);
        let sql = "SELECT a FROM t";
        let one = u.uniquify(sql, &mut rng, 1);
        let two = u.uniquify(sql, &mut rng, 2);
        assert_ne!(one, sql);
        assert_ne!(one, two);
        parse(&one).unwrap();
    }

    #[test]
    fn draw_path_matches_the_allocating_paths_draws() {
        // The engine's draw-only path must leave the RNG exactly where the
        // allocating path does, template by template and submission by
        // submission — this equality is what lets the engine skip the
        // render without perturbing any seeded experiment.
        let mut catalog = TemplateCatalog::from_templates(
            sales_templates()
                .into_iter()
                .chain(tpch_like_templates())
                .chain(oltp_templates()),
        );
        catalog.intern(crate::templates::QueryTemplate {
            name: "bare".into(),
            kind: crate::templates::WorkloadKind::Oltp,
            sql: "SELECT a FROM t".into(),
        });
        assert_eq!(
            catalog.len(),
            21,
            "20-template catalog plus a literal-free one"
        );
        let reference = Uniquifier::new();
        let mut drawer = Uniquifier::new();
        let mut rng_a = SimRng::seed_from_u64(23);
        let mut rng_b = SimRng::seed_from_u64(23);
        for round in 0..5u64 {
            for (id, t) in catalog.iter() {
                let sub = round * 100 + id.index() as u64;
                reference.uniquify(&t.sql, &mut rng_a, sub);
                drawer.draw_perturbations(id, &t.sql, &mut rng_b);
                assert_eq!(
                    rng_a.clone().next_u64(),
                    rng_b.clone().next_u64(),
                    "RNG streams diverged after {} in round {round}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"abc"), fnv1a_64(b"abc"));
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
        // The incremental hasher matches the one-shot function for any
        // split of the input.
        let text = b"throttledb-trace v2 streams its digest";
        for split in 0..=text.len() {
            let mut h = Fnv64::new();
            h.update(&text[..split]);
            h.update(&text[split..]);
            assert_eq!(h.finish(), fnv1a_64(text), "split at {split}");
        }
    }
}
