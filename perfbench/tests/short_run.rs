//! Short runs of every workload under the small test plan: each must pass
//! its output check, print every metric `BENCHMARK.json` declares with the
//! declared unit, and give the same digest traced and untraced.

use cfd_exec::Json;
use perfbench::plan::Plan;
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::{run, Options, WorkloadName};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("short-run-{tag}"))
}

fn short_run(workload: WorkloadName, trace: bool) -> Outcome {
    let opts = Options { workload, seed: 3, seconds: 0.0, trace };
    let tag = format!("{}-{}", workload.name(), u8::from(trace));
    run(&opts, &Plan::quick(), &scratch(&tag)).unwrap_or_else(|e| panic!("{tag}: {e}"))
}

/// `(name, unit)` of each metric in one list of the repository's
/// `BENCHMARK.json` (read by scanning: the list holds flat objects).
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark package");
    let start = text.find(&format!("\"{list}\"")).expect("metric list");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list end")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
        let value = &obj[at..];
        let value = &value[value.find('"').expect("string value") + 1..];
        value[..value.find('"').expect("closing quote")].to_string()
    };
    section.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn assert_reports(outcome: &Outcome, want: &[(String, String)]) {
    let got: Vec<(String, String)> = outcome.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    let mut sorted_want = want.to_vec();
    sorted_want.sort();
    let mut sorted_got = got.clone();
    sorted_got.sort();
    assert_eq!(sorted_got, sorted_want, "{}: metric names and units", outcome.workload);
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{}: {} = {}", outcome.workload, m.name, m.value);
        let line = format!("{} ", m.name);
        assert!(outcome.human().contains(&line), "{} is not printed", m.name);
    }
    assert!(outcome.correct(), "{}: {:?}", outcome.workload, outcome.failures);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
}

#[test]
fn contract_tables_match_benchmark_json() {
    let pairs = |t: &[(&str, &str)]| t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>();
    assert_eq!(pairs(&END_TO_END), declared("end_to_end"));
    assert_eq!(pairs(&PER_LAYER), declared("per_layer"));
}

#[test]
fn every_workload_reports_end_to_end_metrics_and_passes_its_check() {
    let want = declared("end_to_end");
    for w in WorkloadName::ALL {
        let outcome = short_run(w, false);
        assert_reports(&outcome, &want);
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{}: {} must never be 0", w.name(), m.name);
        }
        let line = outcome.json();
        let head = format!("{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{{", outcome.attempted);
        assert!(line.starts_with(&head) && line.ends_with("}}") && !line.contains('\n'), "{line}");
    }
}

#[test]
fn traced_runs_report_every_layer_with_the_untraced_digest() {
    let want = declared("per_layer");
    for w in WorkloadName::ALL {
        let traced = short_run(w, true);
        assert_reports(&traced, &want);
        assert_eq!(traced.digest, short_run(w, false).digest, "{}: traced digest", w.name());
        let trace_file = scratch(&format!("{}-1", w.name())).join(format!("trace-{}-3.json", w.name()));
        let doc = std::fs::read_to_string(&trace_file).expect("the traced run writes its spans");
        Json::parse(&doc).expect("trace file is JSON");
    }
}

#[test]
fn bad_arguments_are_refused() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = Options::parse(&args("--workload detail --seed 1 --seconds 2 --trace 1")).expect("valid");
    assert_eq!(ok, Options { workload: WorkloadName::Detail, seed: 1, seconds: 2.0, trace: true });
    for bad in [
        "--workload nope --seed 1 --seconds 2 --trace 0",
        "--workload detail --seed x --seconds 2 --trace 0",
        "--workload detail --seed 1 --seconds 2 --trace 2",
        "--workload detail --seed 1 --seconds 2",
        "--workload detail --workload detail --seed 1 --seconds 2 --trace 0",
        "--workload detail --seed 1 --seconds 2 --trace 0 --extra 1",
    ] {
        assert!(Options::parse(&args(bad)).is_err(), "accepted: {bad}");
    }
}
