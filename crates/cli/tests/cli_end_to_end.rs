//! End-to-end exercise of the `blot` binary: generate → build → info →
//! query → scrub → (damage) → repair.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use std::path::PathBuf;
use std::process::Command;

struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn new(label: &str) -> Self {
        let root = std::env::temp_dir().join(format!("blot-cli-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn path(&self, name: &str) -> String {
        self.root.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn blot(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_blot"))
        .args(args)
        .output()
        .expect("run blot binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn full_cli_lifecycle() {
    let dirs = Dirs::new("lifecycle");
    let data = dirs.path("fleet.csv");
    let store = dirs.path("store");

    // generate
    let (ok, out) = blot(&[
        "generate",
        "--out",
        &data,
        "--taxis",
        "40",
        "--records",
        "100",
        "--seed",
        "9",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("4000 records"), "{out}");

    // build two diverse replicas
    let (ok, out) = blot(&[
        "build",
        "--data",
        &data,
        "--store",
        &store,
        "--replica",
        "S16xT4/ROW-SNAPPY",
        "--replica",
        "S4xT2/COL-GZIP",
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("built replica 0") && out.contains("built replica 1"),
        "{out}"
    );
    assert!(std::path::Path::new(&store).join("manifest.json").exists());

    // info reopens from the manifest
    let (ok, out) = blot(&["info", "--store", &store]);
    assert!(ok, "{out}");
    assert!(out.contains("replica 0: S16xT4/ROW-SNAPPY"), "{out}");
    assert!(out.contains("replica 1: S4xT2/COL-GZIP"), "{out}");

    // query the whole universe: every record comes back
    let (ok, out) = blot(&[
        "query",
        "--store",
        &store,
        "--center",
        "121,31,4000",
        "--size",
        "10,10,1000000",
        "--limit",
        "2",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("4000 records"), "{out}");

    // clean scrub
    let (ok, out) = blot(&["scrub", "--store", &store]);
    assert!(ok, "{out}");
    assert!(out.contains("healthy"), "{out}");

    // destroy a unit on disk, scrub sees it, repair heals it
    std::fs::remove_file(std::path::Path::new(&store).join("r0").join("p3.unit")).unwrap();
    let (ok, out) = blot(&["scrub", "--store", &store]);
    assert!(ok, "{out}");
    assert!(out.contains("r0/p3"), "{out}");
    let (ok, out) = blot(&["repair", "--store", &store]);
    assert!(ok, "{out}");
    assert!(out.contains("repaired 1 units"), "{out}");
    let (ok, out) = blot(&["scrub", "--store", &store]);
    assert!(ok, "{out}");
    assert!(out.contains("healthy"), "{out}");
}

/// Generates a 4 000-record fleet and builds a row and a column replica
/// of it under `dirs`; returns the store directory.
fn two_replica_store(dirs: &Dirs) -> String {
    let data = dirs.path("fleet.csv");
    let store = dirs.path("store");
    let (ok, out) = blot(&[
        "generate",
        "--out",
        &data,
        "--taxis",
        "40",
        "--records",
        "100",
        "--seed",
        "11",
    ]);
    assert!(ok, "{out}");
    let (ok, out) = blot(&[
        "build",
        "--data",
        &data,
        "--store",
        &store,
        "--replica",
        "S16xT4/ROW-SNAPPY",
        "--replica",
        "S4xT2/COL-GZIP",
    ]);
    assert!(ok, "{out}");
    store
}

#[test]
fn stats_reports_metrics_and_drift() {
    let dirs = Dirs::new("stats");
    let store = two_replica_store(&dirs);

    // Text mode: metric table plus the drift section.
    let (ok, out) = blot(&["stats", "--store", &store, "--queries", "10"]);
    assert!(ok, "{out}");
    assert!(out.contains("store.query_wall_ms"), "{out}");
    assert!(out.contains("cost-model drift"), "{out}");

    // JSON mode: parse and assert the probe workload left non-zero
    // query / scan / pool metrics and a per-scheme drift section.
    let (ok, out) = blot(&["stats", "--store", &store, "--queries", "10", "--json"]);
    assert!(ok, "{out}");
    let doc = blot_json::Json::parse(out.trim()).expect("stats --json emits valid JSON");
    assert_eq!(doc.field("enabled").unwrap().as_bool(), Some(true));
    let counters = doc.field("metrics").unwrap().field("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(blot_json::Json::as_u64);
    let histograms = doc.field("metrics").unwrap().field("histograms").unwrap();
    let queries = histograms
        .get("store.query_wall_ms")
        .and_then(|h| h.get("count"))
        .and_then(blot_json::Json::as_u64);
    assert_eq!(queries, Some(10), "{out}");
    assert!(counter("store.units_scanned").unwrap() > 0, "{out}");
    assert!(counter("store.records_decoded").unwrap() > 0, "{out}");
    let pool_tasks =
        counter("pool.tasks_inline").unwrap_or(0) + counter("pool.tasks_pooled").unwrap_or(0);
    assert!(pool_tasks > 0, "executor pool saw no tasks: {out}");
    let drift = doc.field("drift").unwrap();
    let schemes = drift.field("schemes").unwrap().as_array().unwrap();
    assert_eq!(schemes.len(), 8, "one drift row per grid scheme");
    let sampled: Vec<&str> = schemes
        .iter()
        .filter(|s| s.field("samples").unwrap().as_u64().unwrap() > 0)
        .map(|s| s.field("scheme").unwrap().as_str().unwrap())
        .collect();
    assert!(
        !sampled.is_empty(),
        "probe queries must leave drift samples"
    );
    for s in &sampled {
        assert!(
            *s == "row-lzf" || *s == "col-deflate",
            "unexpected sampled scheme {s}: {out}"
        );
    }
}

#[test]
fn explain_routes_to_the_smallest_prediction() {
    let dirs = Dirs::new("explain");
    let store = two_replica_store(&dirs);
    // A dense box, the whole universe, and a thin slab after the last
    // fix (time ends near 3 128 s) that the zone maps prune entirely.
    for (center, size) in [
        ("121,31,1500", "0.4,0.4,1000"),
        ("121,31,4000", "10,10,1000000"),
        ("121,31,3110", "2,2,20"),
    ] {
        let (ok, out) = blot(&[
            "explain", "--store", &store, "--center", center, "--size", size,
        ]);
        assert!(ok, "{out}");
        let predicted = |line: &str| -> f64 {
            let rest = line.split("predicted ").nth(1).expect("a prediction");
            rest.split_whitespace().next().unwrap().parse().unwrap()
        };
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with("replica ")).collect();
        assert_eq!(lines.len(), 2, "{out}");
        let routed: Vec<&&str> = lines.iter().filter(|l| l.ends_with("<- routed")).collect();
        assert_eq!(routed.len(), 1, "exactly one replica is routed: {out}");
        let min = lines.iter().map(|l| predicted(l)).fold(f64::MAX, f64::min);
        assert!(
            predicted(routed[0]) <= min,
            "the routed plan has the smallest prediction: {out}"
        );
        assert!(
            lines.iter().all(|l| l.contains("over the surviving units")),
            "{out}"
        );
    }
}

#[test]
fn trace_prints_an_indented_span_tree_and_chrome_events() {
    let dirs = Dirs::new("trace");
    let store = two_replica_store(&dirs);

    // Text: two traces, each a `store.query` root with its stages
    // indented one level below it and a simulated cost beside it.
    let (ok, out) = blot(&["trace", "--store", &store, "--queries", "2"]);
    assert!(ok, "{out}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("trace ")).count(),
        2,
        "{out}"
    );
    let root = lines
        .iter()
        .position(|l| l.starts_with("  store.query"))
        .expect("a root span at depth 0");
    assert!(lines[root].contains("  sim "), "{out}");
    assert!(lines[root + 1].starts_with("    route"), "{out}");
    assert!(lines[root + 1].contains("replica="), "{out}");

    // Chrome: complete events with a timestamp and the span's notes.
    let (ok, out) = blot(&["trace", "--store", &store, "--queries", "2", "--chrome"]);
    assert!(ok, "{out}");
    let doc = blot_json::Json::parse(out.trim()).expect("trace --chrome emits valid JSON");
    let events = doc.as_array().expect("a JSON array");
    assert!(!events.is_empty(), "{out}");
    for event in events {
        assert_eq!(event.field("ph").unwrap().as_str(), Some("X"), "{out}");
        assert!(event.field("ts").unwrap().as_u64().is_some(), "{out}");
    }
    let route = events
        .iter()
        .find(|e| e.field("name").unwrap().as_str() == Some("route"))
        .expect("a route event");
    let args = route.field("args").unwrap();
    assert!(args.field("replica").unwrap().as_u64().is_some(), "{out}");
    assert!(args.field("units").unwrap().as_u64().unwrap() > 0, "{out}");
}

#[test]
fn select_prints_a_recommendation() {
    let dirs = Dirs::new("select");
    let data = dirs.path("fleet.csv");
    let (ok, out) = blot(&[
        "generate",
        "--out",
        &data,
        "--taxis",
        "30",
        "--records",
        "80",
        "--seed",
        "3",
    ]);
    assert!(ok, "{out}");
    let (ok, out) = blot(&[
        "select",
        "--data",
        &data,
        "--budget-copies",
        "3",
        "--records",
        "65000000",
        "--env",
        "cloud",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("selected"), "{out}");
    assert!(out.contains("GiB"), "{out}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (ok, out) = blot(&["query", "--store", "/nonexistent"]);
    assert!(!ok);
    assert!(out.contains("error"), "{out}");
    let (ok, out) = blot(&["frobnicate"]);
    assert!(!ok);
    assert!(out.contains("unknown command"), "{out}");
    let (ok, out) = blot(&["build", "--data", "x.csv"]);
    assert!(!ok);
    assert!(out.contains("--store") || out.contains("error"), "{out}");
}
