//! Table T1 golden: the optimizer's characterization of every workload
//! template, pinned bit for bit.
//!
//! For each of the 20 templates (10 SALES and 4 OLTP on the paper-scale
//! SALES catalog, 6 TPC-H-like on the scale-30 TPC-H catalog) one line
//! records the compile statistics, the plan's total cost bits, a digest of
//! the whole physical plan and the execution profile built from it. One
//! more line compiles a SALES template under a capping governor, which
//! exercises the best-effort early exit. Every golden and digest in the
//! repository derives from these numbers, so any optimizer change must
//! leave this file byte-identical.
//!
//! On a mismatch the test prints a per-template diff and writes the full
//! current rendering next to the test binaries
//! (`target/tmp/optimizer_templates.txt`); copying that file over
//! `tests/golden/optimizer_templates.txt` re-records the golden.

use std::fmt::Write as _;
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_executor::ExecutionModel;
use throttledb_optimizer::{
    GovernorDirective, MemoryGovernor, OptimizationOutcome, Optimizer, OptimizerError,
};
use throttledb_sqlparse::parse;
use throttledb_workload::{oltp_templates, sales_templates, tpch_like_templates, QueryTemplate};

const GOLDEN: &str = include_str!("golden/optimizer_templates.txt");

/// Cap used for the best-effort line: small enough that the template's
/// exploration is cut short, large enough that the initial plan exists.
const CAP_BYTES: u64 = 4 << 20;

/// The template compiled under the capping governor.
const CAPPED_TEMPLATE: &str = "sales_q05";

struct CapGovernor(u64);

impl MemoryGovernor for CapGovernor {
    fn on_allocation(&mut self, used: u64, _peak: u64) -> GovernorDirective {
        if used > self.0 {
            GovernorDirective::FinishWithBestPlan
        } else {
            GovernorDirective::Continue
        }
    }
}

/// FNV-1a over the plan's `Debug` rendering: every operator, name, row
/// estimate and cost of the tree.
fn plan_digest(outcome: &OptimizationOutcome) -> u64 {
    format!("{:?}", outcome.plan)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn render_line(
    out: &mut String,
    label: &str,
    catalog: &Catalog,
    outcome: Result<OptimizationOutcome, OptimizerError>,
) {
    let outcome = outcome.unwrap_or_else(|e| panic!("{label} must compile: {e}"));
    let s = &outcome.stats;
    let profile = ExecutionModel::default().profile(&outcome.plan, catalog);
    writeln!(
        out,
        "{label} stage={:?} transformations={} peak_memory_bytes={} memo_groups={} \
         memo_exprs={} finished_best_effort={} total_cost_bits={:#018x} plan_digest={:#018x} \
         cpu_seconds_bits={:#018x} footprint_bytes={} grant_bytes={}",
        s.stage,
        s.transformations,
        s.peak_memory_bytes,
        s.memo_groups,
        s.memo_exprs,
        s.finished_best_effort,
        outcome.plan.total_cost.total().to_bits(),
        plan_digest(&outcome),
        profile.cpu_seconds.to_bits(),
        profile.footprint_bytes,
        profile.requested_grant_bytes,
    )
    .unwrap();
}

fn render() -> String {
    let sales = sales_schema(SalesScale::paper());
    let tpch = tpch_schema(30.0);
    let families: [(&Catalog, Vec<QueryTemplate>); 3] = [
        (&sales, sales_templates()),
        (&sales, oltp_templates()),
        (&tpch, tpch_like_templates()),
    ];
    let mut out = String::new();
    let mut count = 0;
    for (catalog, templates) in &families {
        let optimizer = Optimizer::new(catalog);
        for t in templates {
            let stmt = parse(&t.sql).expect("templates parse");
            render_line(&mut out, &t.name, catalog, optimizer.optimize(&stmt));
            count += 1;
        }
    }
    assert_eq!(count, 20, "the workload has 20 templates");

    let capped = sales_templates()
        .into_iter()
        .find(|t| t.name == CAPPED_TEMPLATE)
        .expect("capped template exists");
    let stmt = parse(&capped.sql).unwrap();
    let outcome = Optimizer::new(&sales).optimize_with_governor(
        &stmt,
        Box::new(CapGovernor(CAP_BYTES)),
        None,
    );
    render_line(
        &mut out,
        &format!("{CAPPED_TEMPLATE}@cap{CAP_BYTES}"),
        &sales,
        outcome,
    );
    out
}

/// Lines keyed by their leading template label.
fn by_label(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| (l.split(' ').next().unwrap_or(""), l))
        .collect()
}

#[test]
fn optimizer_characterization_matches_the_golden() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let expected = by_label(GOLDEN);
    let got = by_label(&actual);
    let mut diff = String::new();
    for (label, line) in &got {
        match expected.iter().find(|(l, _)| l == label) {
            Some((_, want)) if want == line => {}
            Some((_, want)) => {
                let fields: Vec<String> = want
                    .split(' ')
                    .zip(line.split(' '))
                    .filter(|(w, g)| w != g)
                    .map(|(w, g)| format!("    golden {w}\n    actual {g}"))
                    .collect();
                writeln!(diff, "  {label}:\n{}", fields.join("\n")).unwrap();
            }
            None => writeln!(diff, "  {label}: not in the golden").unwrap(),
        }
    }
    for (label, _) in &expected {
        if !got.iter().any(|(l, _)| l == label) {
            writeln!(diff, "  {label}: missing from the current run").unwrap();
        }
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("optimizer_templates.txt");
    let _ = std::fs::write(&dump, &actual);
    panic!(
        "optimizer characterization drifted from tests/golden/optimizer_templates.txt:\n{diff}\
         full current rendering written to {}",
        dump.display()
    );
}
