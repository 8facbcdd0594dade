//! Static HTML run pages.
//!
//! The sp-system's "script-based web pages" record available validation runs
//! and show per-test status cells "linked to a corresponding output file"
//! (§3.3). These generators produce the same pages as static HTML, with
//! links realised as content-addressed object references into the common
//! storage.

use sp_core::{TestStatus, ValidationRun};

/// Escapes the five HTML-special characters.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// CSS class for a status cell.
fn status_class(status: &TestStatus) -> &'static str {
    match status {
        TestStatus::Passed => "pass",
        TestStatus::PassedWithWarnings(_) => "warn",
        TestStatus::Failed(_) => "fail",
        TestStatus::Skipped(_) => "skip",
    }
}

/// Status cell text.
fn status_text(status: &TestStatus) -> String {
    match status {
        TestStatus::Passed => "ok".to_string(),
        TestStatus::PassedWithWarnings(n) => format!("ok ({n} warnings)"),
        TestStatus::Failed(kind) => format!("FAILED: {kind}"),
        TestStatus::Skipped(reason) => format!("skipped: {}", reason),
    }
}

const STYLE: &str = "\
<style>\n\
body { font-family: sans-serif; }\n\
table { border-collapse: collapse; }\n\
td, th { border: 1px solid #999; padding: 2px 6px; }\n\
.pass { background: #cfc; }\n\
.warn { background: #ffc; }\n\
.fail { background: #fcc; }\n\
.skip { background: #eee; }\n\
</style>\n";

/// The index page: one row per run, as the paper's "available validation
/// runs for a given description" listing.
pub fn run_index_page(runs: &[ValidationRun]) -> String {
    let mut html = String::new();
    html.push_str("<!DOCTYPE html>\n<html><head><title>sp-system validation runs</title>\n");
    html.push_str(STYLE);
    html.push_str("</head><body>\n<h1>sp-system validation runs</h1>\n<table>\n");
    html.push_str(
        "<tr><th>run</th><th>description</th><th>timestamp</th>\
         <th>passed</th><th>failed</th><th>skipped</th></tr>\n",
    );
    for run in runs {
        let class = if run.is_successful() { "pass" } else { "fail" };
        html.push_str(&format!(
            "<tr class=\"{class}\"><td><a href=\"{id}.html\">{id}</a></td>\
             <td>{desc}</td><td>{ts}</td><td>{p}</td><td>{f}</td><td>{s}</td></tr>\n",
            id = run.id,
            desc = escape(&run.description),
            ts = run.timestamp,
            p = run.passed(),
            f = run.failed(),
            s = run.skipped(),
        ));
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

/// The per-run page: one status cell per test, each output linked by its
/// content address.
pub fn run_page(run: &ValidationRun) -> String {
    let mut html = String::new();
    html.push_str(&format!(
        "<!DOCTYPE html>\n<html><head><title>{id}</title>\n{STYLE}</head><body>\n\
         <h1>Validation run {id}</h1>\n\
         <p>{desc} &mdash; image <b>{image}</b>, Unix time {ts}</p>\n<table>\n\
         <tr><th>test</th><th>group</th><th>status</th><th>outputs</th></tr>\n",
        id = run.id,
        desc = escape(&run.description),
        image = escape(&run.image_label),
        ts = run.timestamp,
    ));
    for result in &run.results {
        let links: Vec<String> = result
            .outputs
            .iter()
            .map(|(name, oid)| {
                format!(
                    "<a href=\"../objects/{hash}\">{name}</a>",
                    hash = oid.to_hex(),
                    name = escape(name)
                )
            })
            .collect();
        html.push_str(&format!(
            "<tr><td>{test}</td><td>{group}</td>\
             <td class=\"{class}\">{status}</td><td>{links}</td></tr>\n",
            test = escape(result.test.as_str()),
            group = escape(&result.group),
            class = status_class(&result.status),
            status = escape(&status_text(&result.status)),
            links = links.join(" "),
        ));
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

/// The Figure-3 matrix as an HTML page: experiment bands × configuration
/// columns with coloured status cells.
pub fn matrix_page(
    system: &sp_core::SpSystem,
    summary: &sp_core::CampaignSummary,
    band_order: &[&str],
) -> String {
    use sp_core::campaign::CellStatus;
    let cell_class = |status: CellStatus| match status {
        CellStatus::Pass => "pass",
        CellStatus::Warnings => "warn",
        CellStatus::Fail => "fail",
        CellStatus::NotRun => "skip",
    };

    let mut html = String::new();
    html.push_str("<!DOCTYPE html>\n<html><head><title>sp-system validation summary</title>\n");
    html.push_str(STYLE);
    html.push_str("</head><body>\n<h1>Summary of validation tests</h1>\n");
    html.push_str(&format!(
        "<p>{} runs, {} fully successful</p>\n<table>\n<tr><th>experiment</th><th>process</th>",
        summary.total_runs(),
        summary.successful_runs()
    ));
    for image in &summary.image_labels {
        html.push_str(&format!("<th>{}</th>", escape(image)));
    }
    html.push_str("</tr>\n");

    let rows = summary.rows();
    for experiment in band_order {
        let color = system
            .experiment(experiment)
            .map(|e| e.color)
            .unwrap_or("grey");
        for (exp, group) in rows.iter().filter(|(e, _)| e == experiment) {
            html.push_str(&format!(
                "<tr><td style=\"color:{color}\"><b>{}</b></td><td>{}</td>",
                escape(exp),
                escape(group)
            ));
            for image in &summary.image_labels {
                let status = summary.cell(exp, group, image);
                html.push_str(&format!(
                    "<td class=\"{}\">{}</td>",
                    cell_class(status),
                    status.glyph()
                ));
            }
            html.push_str("</tr>\n");
        }
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{FailureKind, RunId, TestCategory, TestId, TestResult};
    use sp_exec::JobId;
    use sp_store::ObjectId;

    fn sample_run() -> ValidationRun {
        ValidationRun {
            id: RunId(7),
            experiment: "h1".into(),
            image_label: "SL6/64bit gcc4.4".into(),
            description: "h1 @ root 5.34 <test>".into(),
            timestamp: 1_383_000_000,
            results: vec![
                TestResult {
                    test: TestId::new("h1/compile/h1rec"),
                    category: TestCategory::Compilation,
                    group: "compilation".into(),
                    job: JobId(1),
                    status: TestStatus::Passed,
                    outputs: std::sync::Arc::from([(
                        "build.log".into(),
                        ObjectId::for_bytes(b"log"),
                    )]),
                    compare: None,
                },
                TestResult {
                    test: TestId::new("h1/chain/nc-dis/validation"),
                    category: TestCategory::DataValidation,
                    group: "analysis chains".into(),
                    job: JobId(2),
                    status: TestStatus::Failed(FailureKind::ComparisonFailed(
                        "chi2 p = 1e-9".into(),
                    )),
                    outputs: Default::default(),
                    compare: None,
                },
            ],
        }
    }

    #[test]
    fn run_page_links_outputs_by_content_address() {
        let html = run_page(&sample_run());
        assert!(html.contains(&ObjectId::for_bytes(b"log").to_hex()));
        assert!(html.contains("class=\"pass\""));
        assert!(html.contains("class=\"fail\""));
        assert!(html.contains("chi2 p = 1e-9"));
    }

    #[test]
    fn index_lists_runs_with_status_colour() {
        let html = run_index_page(&[sample_run()]);
        assert!(html.contains("spr-000007"));
        assert!(html.contains("tr class=\"fail\""));
        assert!(html.contains("<td>1</td>"), "failed count");
    }

    #[test]
    fn matrix_page_renders_bands_and_cells() {
        use sp_core::campaign::{CellStatus, RunRecord};
        use sp_core::{CampaignSummary, SpSystem};
        let mut cells = std::collections::BTreeMap::new();
        cells.insert(
            (
                "hermes".to_string(),
                "compilation".to_string(),
                "SL6".to_string(),
            ),
            CellStatus::Pass,
        );
        cells.insert(
            ("hermes".to_string(), "tools".to_string(), "SL6".to_string()),
            CellStatus::Fail,
        );
        let summary = CampaignSummary {
            runs: vec![RunRecord {
                id: RunId(1),
                experiment: "hermes".into(),
                image_label: "SL6".into(),
                timestamp: 0,
                passed: 10,
                failed: 1,
                skipped: 0,
                successful: false,
            }],
            cells,
            image_labels: vec!["SL6".into()],
        };
        let system = SpSystem::new();
        let html = matrix_page(&system, &summary, &["hermes"]);
        assert!(html.contains("<th>SL6</th>"));
        assert!(html.contains("class=\"pass\""));
        assert!(html.contains("class=\"fail\""));
        assert!(html.contains("1 runs, 0 fully successful"));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("<a & \"b\">"), "&lt;a &amp; &quot;b&quot;&gt;");
        let html = run_page(&sample_run());
        assert!(html.contains("&lt;test&gt;"), "description is escaped");
    }
}
