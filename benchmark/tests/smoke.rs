//! The benchmark's self-test: every workload in `--smoke` mode (20 k
//! records, 1 s window), plus the properties a result depends on.

use std::path::PathBuf;

use blot_benchmark::fixture::{Ctx, Fixture, Space, SMOKE};
use blot_benchmark::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use blot_benchmark::oracle::{Fingerprint, Oracle};
use blot_benchmark::replay::replay;
use blot_benchmark::run::{run, RunArgs};
use blot_benchmark::spans::Tracer;
use blot_benchmark::sut::{self, Scratch};
use blot_benchmark::workloads::inproc::{ScanHeavy, Selective, Shape};
use blot_json::Json;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke(workload: &str, trace: bool) {
    let args = RunArgs {
        workload: workload.to_owned(),
        seed: 42,
        seconds: 1.0,
        trace,
        smoke: true,
        out: tmp(&format!("{workload}-{}", u8::from(trace))),
    };
    let result = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(result.attempted >= 1, "{workload}: nothing attempted");
    assert_eq!(result.failed, 0, "{workload}: {}", result.doc.pretty());
    let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
    if trace {
        assert_eq!(
            names,
            PER_LAYER.map(|m| m.0),
            "{workload}: per-layer metrics"
        );
    } else {
        assert_eq!(
            names,
            END_TO_END.map(|m| m.0),
            "{workload}: end-to-end metrics"
        );
        for (name, value, unit) in &result.metrics {
            assert!(
                *value > 0.0,
                "{workload}: {name} is {value}; end-to-end metrics are never 0"
            );
            assert_eq!(Some(*unit), metrics::unit_of(name));
        }
    }
    for (name, value, unit) in &result.metrics {
        assert!(value.is_finite() && !unit.is_empty(), "{workload}: {name}");
    }
    // The last line is what the driver parses.
    let line = Json::parse(&result.last_line()).expect("last line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(
            line.get(key).is_some(),
            "{workload}: last line lacks `{key}`"
        );
    }
    assert!(args
        .out
        .join(format!(
            "{workload}.{}.json",
            if trace { "layers" } else { "e2e" }
        ))
        .exists());
    assert_eq!(
        args.out.join(format!("{workload}.trace.json")).exists(),
        trace
    );
}

macro_rules! smoke_tests {
    ($($name:ident),*) => {$(
        mod $name {
            #[test]
            fn untraced() {
                super::smoke(stringify!($name), false);
            }

            #[test]
            fn traced() {
                super::smoke(stringify!($name), true);
            }
        }
    )*};
}

smoke_tests!(
    scan_heavy,
    selective,
    serve_small,
    routed,
    ingest_mix,
    advise
);

#[test]
fn every_workload_has_a_smoke_test() {
    assert_eq!(
        WORKLOADS.map(|w| w.0),
        [
            "scan_heavy",
            "selective",
            "serve_small",
            "routed",
            "ingest_mix",
            "advise"
        ]
    );
}

#[test]
fn benchmark_json_agrees_with_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).expect("valid JSON");
    assert_eq!(
        committed,
        metrics::benchmark_json(),
        "regenerate with `blot-benchmark spec`"
    );
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

fn ctx(seed: u64) -> Ctx {
    Ctx {
        seed,
        window: std::time::Duration::from_secs(1),
        scale: SMOKE,
        scratch: tmp(&format!("props-{seed}")),
        callers: 1,
    }
}

#[test]
fn query_lists_repeat_with_the_seed_and_move_with_it() {
    let fleet = sut::generate_fleet(SMOKE.taxis, SMOKE.fixes_per_taxi, 7);
    let space = Space::of(&fleet.data, fleet.universe);
    let list = |seed: u64| {
        (
            ScanHeavy::queries(&space, &mut ctx(seed).stream(1)),
            Selective::queries(&space, &mut ctx(seed).stream(1)),
        )
    };
    assert_eq!(list(7), list(7));
    assert_ne!(list(7).0, list(8).0);
    assert_ne!(list(7).1, list(8).1);
    assert_eq!(list(7).0.len(), ScanHeavy::QUERIES);
}

#[test]
fn replay_and_oracle_agree_with_query_and_filter_range() {
    let ctx = ctx(11);
    let mut tracer = Tracer::new();
    let fx = Fixture::set_up(&ctx, &mut tracer).expect("set-up");
    let space = Space::of(&fx.fleet.data, fx.fleet.universe);
    let oracle = Oracle::new(&fx.fleet.data);
    let mut scratch = Scratch::default();
    let mut queries = ScanHeavy::queries(&space, &mut ctx.stream(1));
    queries.extend(Selective::queries(&space, &mut ctx.stream(1)));
    let mut matched = 0;
    for q in queries.iter().step_by(8) {
        // The slab oracle is the plain linear scan ...
        let mut slab = oracle.records(q);
        let mut scan = fx.fleet.data.filter_range(q);
        slab.sort_by_oid_time();
        scan.sort_by_oid_time();
        assert_eq!(slab, scan);
        assert_eq!(oracle.expect(q), Fingerprint::of(&scan));
        // ... `query` returns exactly that ...
        let answer = fx.store.query(q).expect("query");
        assert!(oracle.agrees(q, &answer.records));
        // ... and so does the layer-by-layer replay.
        let (replica, replayed, counts) =
            replay(&fx.store, None, q, &mut scratch, &mut tracer).expect("replay");
        assert_eq!(replica, answer.replica);
        assert_eq!(counts.involved, answer.units);
        assert_eq!(counts.pruned, answer.units_skipped);
        assert_eq!(Fingerprint::of(&replayed), Fingerprint::of(&answer.records));
        matched += scan.len();
    }
    assert!(matched > 0, "the sampled queries matched nothing");
    // A fingerprint notices one changed field of one record.
    let mut damaged = fx.fleet.data.clone();
    damaged.passengers[0] ^= 1;
    assert_ne!(Fingerprint::of(&damaged), Fingerprint::of(&fx.fleet.data));
    blot_benchmark::fixture::remove_dir(fx.store.dir());
}
