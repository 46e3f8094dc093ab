//! `blot` — command-line front end for the diverse-replica store.
//!
//! ```text
//! blot generate --out fleet.csv [--taxis 200] [--records 250] [--seed 7]
//! blot build    --data fleet.csv --store ./store --replica S16xT8/ROW-SNAPPY [--replica …]
//! blot info     --store ./store
//! blot query    --store ./store --center LON,LAT,T --size W,H,T [--limit 5]
//! blot explain  --store ./store --center LON,LAT,T --size W,H,T
//! blot select   --data fleet.csv --budget-copies 3 [--exact] [--records 65000000]
//! blot scrub    --store ./store
//! blot repair   --store ./store
//! blot stats    --store ./store [--queries 12] [--probe centroid|tail|mixed] [--json] [--band 0.5,2.0]
//! blot serve    --store ./store [--addr 127.0.0.1:7407] [--max-conns 64] [--queue-depth 256]
//! blot query    --remote 127.0.0.1:7407 --center LON,LAT,T --size W,H,T
//! blot stats    --remote 127.0.0.1:7407 [--json]
//! ```
//!
//! A store directory holds one file per storage unit plus
//! `manifest.json` describing the universe and each replica's
//! partitioning scheme, so stores reopen without the original data.

mod args;
mod manifest;
mod stats;

use blot_core::prelude::*;
use blot_json::Json;
use blot_mip::MipSolver;
use blot_storage::FileBackend;
use blot_tracegen::FleetConfig;
use std::process::ExitCode;

use args::Args;
use manifest::Manifest;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut command = command.as_str();
    let mut rest = rest;
    // `route` takes a subcommand word (`blot route serve …`), which the
    // flag-only parser would reject as positional — peel it off here.
    if command == "route" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "serve" => {
                command = "route-serve";
                rest = tail;
            }
            _ => {
                eprintln!("error: `blot route` requires the `serve` subcommand\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        "generate" => cmd_generate(&args),
        "build" => cmd_build(&args),
        "info" => cmd_info(&args),
        "query" => cmd_query(&args),
        "explain" => cmd_explain(&args),
        "select" => cmd_select(&args),
        "scrub" => cmd_scrub(&args),
        "repair" => cmd_repair(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "serve" => cmd_serve(&args),
        "route-serve" => cmd_route_serve(&args),
        "help" | "--help" | "-h" => {
            pipe_println(USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
blot — diverse-replica storage for location tracking data

commands:
  generate  --out FILE [--taxis N] [--records N] [--seed N]
  build     --data FILE --store DIR --replica SPEC/ENC [--replica …] [--env local|cloud]
  info      --store DIR
  query     --store DIR --center LON,LAT,T --size W,H,T [--limit N] [--replica-id N]
  query     --remote ADDR --center LON,LAT,T --size W,H,T [--limit N] [--trace]
  explain   --store DIR --center LON,LAT,T --size W,H,T
  select    --data FILE [--budget-copies X] [--exact] [--records N] [--env local|cloud]
  scrub     --store DIR
  repair    --store DIR
  stats     --store DIR [--queries N] [--probe centroid|tail|mixed] [--json] [--band LO,HI]
  stats     --remote ADDR [--json] [--band LO,HI]
  trace     --store DIR [--queries N] [--json|--chrome] [--slow MS] [--last N] [--slow-log MS]
  trace     --remote ADDR [--json|--chrome] [--slow MS] [--last N]
  serve     --store DIR [--addr HOST:PORT] [--max-conns N] [--queue-depth N] [--handlers N]
            [--slow-log MS]
  route serve --shard ADDR [--shard ADDR …] [--addr HOST:PORT] [--cuts V1,V2,…] [--axis x|y|t]
            [--map-version N] [--conns-per-shard N] [--shard-retries N]

`route serve` runs a scatter-gather coordinator over running `serve`
shards: records are placed by OID hash by default, or by region slabs
when --cuts (interior cut points on --axis, default t) is given. It
speaks the same wire protocol as `serve`: point `--remote` at it.

replica syntax: S<spatial>xT<temporal>/<LAYOUT>-<CODEC>, e.g. S64xT16/COL-GZIP
  spatial ∈ {4,16,64,256,1024,4096}; temporal a power of two
  encodings: ROW-PLAIN ROW-SNAPPY ROW-GZIP ROW-LZMA COL-SNAPPY COL-GZIP COL-LZMA";

fn parse_env(args: &Args) -> Result<EnvProfile, String> {
    match args.get("env").unwrap_or("local") {
        "local" => Ok(EnvProfile::local_cluster()),
        "cloud" => Ok(EnvProfile::cloud_object_store()),
        other => Err(format!("unknown --env `{other}` (expected local|cloud)")),
    }
}

fn load_csv(path: &str) -> Result<RecordBatch, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RecordBatch::from_csv(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let mut config = FleetConfig::small();
    if let Some(n) = args.get_parsed::<u32>("taxis")? {
        config.num_taxis = n;
    }
    if let Some(n) = args.get_parsed::<u32>("records")? {
        config.records_per_taxi = n;
    }
    if let Some(n) = args.get_parsed::<u64>("seed")? {
        config.seed = n;
    }
    let batch = config.generate();
    std::fs::write(out, batch.to_csv()).map_err(|e| format!("cannot write {out}: {e}"))?;
    pipe_println(&format!(
        "wrote {} records from {} taxis to {out}",
        batch.len(),
        config.num_taxis
    ));
    Ok(())
}

fn universe_for(batch: &RecordBatch) -> Result<Cuboid, String> {
    // A tight bounding box breaks future inserts on the boundary; pad 1%.
    let bb = batch
        .bounding_box()
        .ok_or_else(|| "dataset is empty".to_owned())?;
    let pad = |lo: f64, hi: f64| {
        let d = (hi - lo).max(1e-9) * 0.01;
        (lo - d, hi + d)
    };
    let (x0, x1) = pad(bb.min().x, bb.max().x);
    let (y0, y1) = pad(bb.min().y, bb.max().y);
    let (t0, t1) = pad(bb.min().t, bb.max().t);
    Ok(Cuboid::new(Point::new(x0, y0, t0), Point::new(x1, y1, t1)))
}

fn cmd_build(args: &Args) -> Result<(), String> {
    let data_path = args.require("data")?;
    let store_dir = args.require("store")?;
    let configs: Vec<ReplicaConfig> = args
        .get_all("replica")
        .iter()
        .map(|s| s.parse())
        .collect::<Result<_, _>>()?;
    if configs.is_empty() {
        return Err("at least one --replica is required".into());
    }
    let env = parse_env(args)?;
    let data = load_csv(data_path)?;
    if data.is_empty() {
        return Err("input data is empty".into());
    }
    let universe = universe_for(&data)?;
    let model = CostModel::calibrate(&env, &data, 0xB107);
    let backend = FileBackend::new(store_dir).map_err(|e| e.to_string())?;
    let mut store = BlotStore::new(backend, env, universe, model);
    for config in &configs {
        let id = store
            .build_replica(&data, *config)
            .map_err(|e| e.to_string())?;
        if let Some(r) = store.replicas().get(id as usize) {
            pipe_println(&format!(
                "built replica {id}: {config} — {} units, {:.1} KiB",
                r.scheme.len(),
                r.bytes as f64 / 1024.0
            ));
        }
    }
    Manifest::from_store(&store).save(store_dir)?;
    pipe_println(&format!(
        "store ready at {store_dir} ({:.1} KiB total, manifest.json written)",
        store.total_bytes() as f64 / 1024.0
    ));
    Ok(())
}

fn open_store(args: &Args) -> Result<BlotStore<FileBackend>, String> {
    let store_dir = args.require("store")?;
    let env = parse_env(args)?;
    Manifest::load(store_dir)?.open(store_dir, env)
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let store = open_store(args)?;
    let u = store.universe();
    pipe_println(&format!(
        "universe: lon [{:.4}, {:.4}] lat [{:.4}, {:.4}] time [{:.0}, {:.0}]",
        u.min().x,
        u.max().x,
        u.min().y,
        u.max().y,
        u.min().t,
        u.max().t
    ));
    for r in store.replicas() {
        pipe_println(&format!(
            "replica {}: {} — {} partitions, {} records, {:.1} KiB",
            r.id,
            r.config,
            r.scheme.len(),
            r.records,
            r.bytes as f64 / 1024.0
        ));
    }
    Ok(())
}

fn parse_triple(s: &str, what: &str) -> Result<(f64, f64, f64), String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!(
            "{what} must be three comma-separated numbers, got `{s}`"
        ));
    }
    let mut vals = [0.0; 3];
    for (v, p) in vals.iter_mut().zip(&parts) {
        *v = p
            .trim()
            .parse()
            .map_err(|_| format!("bad number `{p}` in {what}"))?;
    }
    Ok((vals[0], vals[1], vals[2]))
}

/// Prints a line, exiting quietly if stdout is a closed pipe (e.g. the
/// output is being piped into `head`). Any *other* write failure — a
/// full disk, an I/O error on a redirected file — is reported on stderr
/// and exits non-zero (74, `EX_IOERR`): silently dropping output while
/// reporting success would corrupt whatever consumes it.
fn pipe_println(line: &str) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(74);
    }
}

/// Shared result rendering for the local and remote query paths (the
/// wire reply carries the zone-map skip count since protocol revision
/// adding trace support, so both paths report it).
fn print_query_result(
    records: &RecordBatch,
    replica: u32,
    partitions_scanned: usize,
    units_skipped: usize,
    sim_ms: f64,
    makespan_ms: f64,
    limit: usize,
) {
    let skipped = match units_skipped {
        n if n > 0 => format!(" ({n} skipped via zone maps)"),
        _ => String::new(),
    };
    pipe_println(&format!(
        "{} records from replica {} — {} partitions scanned{}, {:.0} simulated ms ({:.0} ms wall)",
        records.len(),
        replica,
        partitions_scanned,
        skipped,
        sim_ms,
        makespan_ms
    ));
    for r in records.iter().take(limit) {
        pipe_println(&format!("  {}", r.to_csv_line()));
    }
    if records.len() > limit {
        pipe_println(&format!("  … {} more", records.len() - limit));
    }
}

/// The query range `--center LON,LAT,T --size W,H,T` describes.
fn parse_range(args: &Args) -> Result<Cuboid, String> {
    let (cx, cy, ct) = parse_triple(args.require("center")?, "--center")?;
    let (w, h, t) = parse_triple(args.require("size")?, "--size")?;
    Ok(Cuboid::from_centroid(
        Point::new(cx, cy, ct),
        QuerySize::new(w, h, t),
    ))
}

/// `blot explain`: how the store would answer a range on each replica —
/// predicted cost, and what the in-memory partition index prunes —
/// without reading a unit. The replica `query` would try first is
/// marked.
fn cmd_explain(args: &Args) -> Result<(), String> {
    let range = parse_range(args)?;
    let store = open_store(args)?;
    let routed = store.route(&range).first().copied();
    for replica in store.replicas() {
        let plan = store
            .plan_on(replica.id, &range)
            .map_err(|e| e.to_string())?;
        pipe_println(&format!(
            "replica {}: {} — predicted {:.0} simulated ms; {} units involved, {} pruned, \
             {} surviving ({:.1} KiB){}",
            replica.id,
            replica.config,
            plan.predicted_ms,
            plan.units_involved,
            plan.units_skipped,
            plan.tasks.len(),
            plan.surviving_bytes as f64 / 1024.0,
            if routed == Some(replica.id) {
                "  <- routed"
            } else {
                ""
            }
        ));
    }
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let range = parse_range(args)?;
    let limit = args.get_parsed::<usize>("limit")?.unwrap_or(5);
    if let Some(addr) = args.get("remote") {
        if args.get("replica-id").is_some() {
            return Err(
                "--replica-id is not supported with --remote (routing is server-side)".into(),
            );
        }
        let mut client =
            blot_server::Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
        // `--trace` opens a client-side trace context and ships it with
        // the query; the server parents its whole span tree under it
        // (inspect with `blot trace --remote ADDR`).
        let ctx = args.has("trace").then(blot_obs::SpanContext::fresh);
        let result = client
            .query_traced(&range, ctx)
            .map_err(|e| e.to_string())?;
        print_query_result(
            &result.records,
            result.replica,
            usize::try_from(result.partitions_scanned).unwrap_or(usize::MAX),
            usize::try_from(result.units_skipped).unwrap_or(usize::MAX),
            result.sim_ms,
            result.makespan_ms,
            limit,
        );
        if let Some(ctx) = ctx {
            pipe_println(&format!(
                "trace {} — admission {:.3} ms, batch {:.3} ms, store {:.3} ms",
                ctx.trace, result.admission_ms, result.batch_ms, result.store_ms
            ));
        }
        return Ok(());
    }
    let store = open_store(args)?;
    let result = if let Some(id) = args.get_parsed::<u32>("replica-id")? {
        store.query_on(id, &range)
    } else {
        store.query(&range)
    }
    .map_err(|e| e.to_string())?;
    print_query_result(
        &result.records,
        result.replica,
        result.partitions_scanned,
        result.units_skipped,
        result.sim_ms,
        result.makespan_ms,
        limit,
    );
    Ok(())
}

fn cmd_select(args: &Args) -> Result<(), String> {
    let data_path = args.require("data")?;
    let env = parse_env(args)?;
    let data = load_csv(data_path)?;
    if data.is_empty() {
        return Err("input data is empty".into());
    }
    let universe = universe_for(&data)?;
    let model = CostModel::calibrate(&env, &data, 0xB107);
    let candidates = ReplicaConfig::grid(&SchemeSpec::paper_grid(), &EncodingScheme::all());
    let workload = Workload::paper_synthetic(&universe);
    #[allow(clippy::cast_precision_loss)]
    let records = args
        .get_parsed::<u64>("records")?
        .map_or(data.len() as f64, |n| n as f64);
    let matrix =
        CostMatrix::estimate_scaled(&model, &workload, &candidates, &data, universe, records);
    let copies = args.get_parsed::<f64>("budget-copies")?.unwrap_or(3.0);
    let budget = copies
        * matrix
            .storage
            .get(matrix.optimal_single().0)
            .copied()
            .unwrap_or(blot_core::units::Bytes::ZERO);
    let kept = prune_dominated(&matrix);
    pipe_println(&format!(
        "{} candidates ({} after dominance pruning), budget = {:.2} GiB",
        matrix.n_candidates(),
        kept.len(),
        budget.get() / (1024.0 * 1024.0 * 1024.0)
    ));
    let selection = if args.has("exact") {
        select_mip(&matrix, budget, &MipSolver::default()).map_err(|e| e.to_string())?
    } else {
        select_greedy(&matrix, budget)
    };
    let ideal = ideal_cost(&matrix);
    pipe_println(&format!(
        "selected {} replicas — estimated workload cost {:.3e} ms ({:.2}× the ideal):",
        selection.chosen.len(),
        selection.workload_cost,
        selection.workload_cost / ideal
    ));
    for &j in &selection.chosen {
        let (Some(cand), Some(&stored)) = (candidates.get(j), matrix.storage.get(j)) else {
            continue;
        };
        pipe_println(&format!(
            "  {cand} — {:.2} GiB",
            stored.get() / (1024.0 * 1024.0 * 1024.0)
        ));
    }
    Ok(())
}

fn cmd_scrub(args: &Args) -> Result<(), String> {
    let store = open_store(args)?;
    let damaged = store.scrub().map_err(|e| format!("scrub failed: {e}"))?;
    let m = store.metrics();
    if blot_obs::enabled() {
        pipe_println(&format!(
            "scanned {} units: {} verified, {} damaged ({} footer mismatches)",
            m.scrub_units_scanned.value(),
            m.scrub_units_verified.value(),
            m.scrub_units_damaged.value(),
            m.scrub_footer_mismatches.value()
        ));
    }
    if damaged.is_empty() {
        pipe_println(&format!(
            "all {} units healthy",
            store
                .replicas()
                .iter()
                .map(|r| r.scheme.len())
                .sum::<usize>()
        ));
    } else {
        pipe_println(&format!("{} damaged units:", damaged.len()));
        for key in damaged {
            pipe_println(&format!("  {key}"));
        }
    }
    Ok(())
}

fn cmd_repair(args: &Args) -> Result<(), String> {
    let store = open_store(args)?;
    let report = store.repair_all().map_err(|e| e.to_string())?;
    if blot_obs::enabled() {
        pipe_println(&format!(
            "scanned {} units ({} verified clean, {} footer mismatches)",
            report.units_scanned, report.units_verified, report.units_footer_mismatch
        ));
    }
    pipe_println(&format!(
        "repaired {} units, {} unrecoverable",
        report.units_repaired, report.units_failed
    ));
    for key in &report.unrecoverable {
        pipe_println(&format!("  unrecoverable: {key}"));
    }
    if report.unrecoverable.is_empty() {
        Ok(())
    } else {
        Err("some units could not be recovered".into())
    }
}

/// Parses `--band LO,HI` into a [`DriftBand`] (defaults otherwise).
fn parse_band(args: &Args) -> Result<DriftBand, String> {
    let Some(s) = args.get("band") else {
        return Ok(DriftBand::default());
    };
    let parts: Vec<&str> = s.split(',').collect();
    let [lo, hi] = parts.as_slice() else {
        return Err(format!("--band must be LO,HI, got `{s}`"));
    };
    let parse = |p: &str| -> Result<f64, String> {
        p.trim()
            .parse()
            .map_err(|_| format!("bad number `{p}` in --band"))
    };
    Ok(DriftBand {
        lo: parse(lo)?,
        hi: parse(hi)?,
        ..DriftBand::default()
    })
}

/// `blot stats`: the stats document of a store or a server, as text or
/// (`--json`) as the document itself. Remotely it is the server's
/// `Stats` reply; locally it is the same document
/// (`blot_server::stats::document`) built after a deterministic probe
/// workload — centroid queries of shrinking extent alternating with
/// "everything since T" tail probes of shrinking tail, plus one scrub
/// pass. The tail probes are the zone-map-sensitive half: on a store
/// whose units carry footers they prune, which is exactly the workload
/// shape whose measured cost drifts away from the Eq. 6 prediction.
fn cmd_stats(args: &Args) -> Result<(), String> {
    let (doc, damaged) = if let Some(addr) = args.get("remote") {
        let band = if args.get("band").is_some() {
            Some(parse_band(args)?)
        } else {
            None
        };
        let mut client =
            blot_server::Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
        let json = client.stats(band).map_err(|e| e.to_string())?;
        let doc = Json::parse(&json).map_err(|e| format!("server sent invalid stats JSON: {e}"))?;
        (doc, 0)
    } else {
        probe_stats(args)?
    };
    if args.has("json") {
        pipe_println(&doc.to_string());
        return Ok(());
    }
    pipe_println(stats::to_text(&doc).trim_end());
    if damaged > 0 {
        pipe_println(&format!("note: scrub found {damaged} damaged units"));
    }
    Ok(())
}

/// The local half of `blot stats`: runs the probe workload on the
/// store and returns its stats document and how many units the scrub
/// found damaged.
fn probe_stats(args: &Args) -> Result<(Json, usize), String> {
    let store = open_store(args)?;
    let rounds = args.get_parsed::<u32>("queries")?.unwrap_or(12);
    let band = parse_band(args)?;
    let probe = args.get("probe").unwrap_or("mixed");
    if !matches!(probe, "centroid" | "tail" | "mixed") {
        return Err(format!(
            "unknown --probe `{probe}` (expected centroid|tail|mixed)"
        ));
    }
    let u = store.universe();
    let centroid_probe = |j: u32| {
        let f = 2.0 + f64::from(j);
        Cuboid::from_centroid(
            u.centroid(),
            QuerySize::new(u.extent(0) / f, u.extent(1) / f, u.extent(2) / f),
        )
    };
    // Full spatial extent, trailing 1/2^(j+1) of the time axis: a
    // geometric "everything since T" ladder whose thin slivers land
    // inside the per-cell last-fix spread, where zone maps prune whole
    // units.
    let tail_probe = |j: u32| {
        let f = f64::from(2u32.saturating_pow((j + 1).min(16)));
        Cuboid::new(
            Point::new(u.min().x, u.min().y, u.max().t - u.extent(2) / f),
            u.max(),
        )
    };
    for k in 0..rounds {
        let q = match probe {
            "centroid" => centroid_probe(k),
            "tail" => tail_probe(k),
            _ if k % 2 == 0 => centroid_probe(k / 2),
            _ => tail_probe(k / 2),
        };
        store
            .query(&q)
            .map_err(|e| format!("probe query failed: {e}"))?;
    }
    let damaged = store.scrub().map_err(|e| format!("scrub failed: {e}"))?;
    let doc =
        blot_server::stats::document(&store.metrics_snapshot(), &store.drift_report(band), None);
    Ok((Json::Obj(doc), damaged.len()))
}

/// One span of the canonical span-JSON array: what
/// `blot_obs::trace::records_to_json` writes and the server's `Trace`
/// reply carries. The wire and the local recorder share that one shape;
/// presentation (Chrome, text) is the CLI's job.
struct SpanView<'a> {
    trace: &'a str,
    span: &'a str,
    parent: Option<&'a str>,
    name: &'a str,
    start_us: u64,
    dur_us: u64,
    sim_ms: f64,
    notes: &'a [(String, Json)],
}

fn span_views(doc: &Json) -> Result<Vec<SpanView<'_>>, String> {
    let items = doc
        .as_array()
        .ok_or_else(|| "trace document is not a JSON array".to_owned())?;
    Ok(items
        .iter()
        .map(|item| {
            let text = |key| item.get(key).and_then(Json::as_str);
            let count = |key| item.get(key).and_then(Json::as_u64).unwrap_or(0);
            SpanView {
                trace: text("trace").unwrap_or("?"),
                span: text("span").unwrap_or("?"),
                parent: text("parent"),
                name: text("name").unwrap_or("?"),
                start_us: count("start_us"),
                dur_us: count("dur_us"),
                sim_ms: item.get("sim_ms").and_then(Json::as_f64).unwrap_or(0.0),
                notes: match item.get("notes") {
                    Some(Json::Obj(notes)) => notes,
                    _ => &[],
                },
            }
        })
        .collect())
}

/// Renders a span-JSON array as Chrome `trace_event` JSON (an array of
/// `ph:"X"` complete events), loadable in `chrome://tracing` or
/// Perfetto. Each trace gets its own `tid` lane so concurrent queries do
/// not overlap; a span's notes and simulated cost go into `args`.
fn trace_json_to_chrome(doc: &Json) -> Result<String, String> {
    let mut lanes: Vec<&str> = Vec::new();
    let mut events = Vec::new();
    for view in span_views(doc)? {
        let tid = match lanes.iter().position(|t| *t == view.trace) {
            Some(p) => p + 1,
            None => {
                lanes.push(view.trace);
                lanes.len()
            }
        };
        let mut args = vec![
            ("trace".to_owned(), Json::Str(view.trace.to_owned())),
            ("span".to_owned(), Json::Str(view.span.to_owned())),
        ];
        args.extend(view.notes.iter().cloned());
        if view.sim_ms > 0.0 {
            args.push(("sim_ms".to_owned(), Json::Num(view.sim_ms)));
        }
        #[allow(clippy::cast_precision_loss)]
        events.push(Json::obj([
            ("name", Json::Str(view.name.to_owned())),
            ("cat", Json::Str("blot".to_owned())),
            ("ph", Json::Str("X".to_owned())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("ts", Json::Num(view.start_us as f64)),
            ("dur", Json::Num(view.dur_us as f64)),
            ("args", Json::Obj(args)),
        ]));
    }
    Ok(Json::Arr(events).to_string())
}

/// Renders a span-JSON array as an indented per-trace tree for
/// terminals: every span below its parent, siblings by start time.
fn trace_json_to_text(doc: &Json) -> Result<String, String> {
    let views = span_views(doc)?;
    let mut traces: Vec<&str> = Vec::new();
    for view in &views {
        if !traces.contains(&view.trace) {
            traces.push(view.trace);
        }
    }
    let mut out = String::new();
    for trace in traces {
        out.push_str(&format!("trace {trace}:\n"));
        let mut of_trace: Vec<&SpanView<'_>> = views.iter().filter(|v| v.trace == trace).collect();
        of_trace.sort_by_key(|v| v.start_us);
        // A span's path is its ancestors' positions, root first, found by
        // walking parent links within the document; sorting the paths
        // gives tree order. A parent evicted from the ring leaves its
        // children as roots, and the length cap ends a forged cycle.
        let mut paths: Vec<Vec<usize>> = (0..of_trace.len())
            .map(|leaf| {
                let mut path = vec![leaf];
                let mut at = of_trace.get(leaf).and_then(|v| v.parent);
                while let Some(up) = at.and_then(|p| of_trace.iter().position(|v| v.span == p)) {
                    if path.len() > 16 {
                        break;
                    }
                    path.push(up);
                    at = of_trace.get(up).and_then(|v| v.parent);
                }
                path.reverse();
                path
            })
            .collect();
        paths.sort();
        for path in &paths {
            let Some(view) = path.last().and_then(|&i| of_trace.get(i)) else {
                continue;
            };
            let indent = "  ".repeat(path.len());
            #[allow(clippy::cast_precision_loss)]
            let dur_ms = view.dur_us as f64 / 1e3;
            out.push_str(&format!("{indent}{:<16} {dur_ms:>9.3} ms", view.name));
            if view.sim_ms > 0.0 {
                out.push_str(&format!("  sim {:.1} ms", view.sim_ms));
            }
            for (k, v) in view.notes {
                out.push_str(&format!("  {k}={v}"));
            }
            out.push('\n');
        }
    }
    if out.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    Ok(out)
}

/// The local half of `blot trace`: replays a deterministic probe
/// workload with tracing on and returns the spans it produced, as the
/// same span-JSON array a server's `Trace` reply carries.
fn probe_trace_json(args: &Args, slow_ms: f64, last: u32) -> Result<String, String> {
    let store = open_store(args)?;
    if !blot_obs::enabled() {
        return Err("tracing is compiled out (blot-obs `off` feature)".into());
    }
    if let Some(ms) = args.get_parsed::<f64>("slow-log")? {
        store.set_slow_query_ms(ms);
    }
    let rounds = args.get_parsed::<u32>("queries")?.unwrap_or(8);
    let u = store.universe();
    for k in 0..rounds {
        let f = 2.0 + f64::from(k);
        let q = Cuboid::from_centroid(
            u.centroid(),
            QuerySize::new(u.extent(0) / f, u.extent(1) / f, u.extent(2) / f),
        );
        for result in store.query_batch_traced(&[TracedQuery::new(q)]) {
            result.map_err(|e| format!("probe query failed: {e}"))?;
        }
    }
    for entry in store.drain_slow_queries() {
        eprintln!("{}", entry.to_line());
    }
    let records = store.recorder().snapshot();
    let records = blot_obs::trace::filter_slow(&records, slow_ms);
    let records =
        blot_obs::trace::filter_last(&records, usize::try_from(last).unwrap_or(usize::MAX));
    Ok(blot_obs::trace::records_to_json(&records))
}

/// `blot trace`: dump a flight-recorder span tree. Remotely it fetches
/// the serving store's recorder over the wire; locally it replays a
/// probe workload (see [`probe_trace_json`]). Both hand the one renderer
/// pair the same span-JSON shape. `--slow MS` keeps only traces with a
/// span at least that slow, `--last N` the N most recent traces;
/// `--json` emits the raw span array, `--chrome` Chrome `trace_event`
/// JSON for `chrome://tracing` / Perfetto.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let slow_ms = args.get_parsed::<f64>("slow")?.unwrap_or(0.0);
    let last = args.get_parsed::<u32>("last")?.unwrap_or(0);
    let json = if let Some(addr) = args.get("remote") {
        let mut client =
            blot_server::Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
        client.trace(slow_ms, last).map_err(|e| e.to_string())?
    } else {
        probe_trace_json(args, slow_ms, last)?
    };
    let parsed = || Json::parse(&json).map_err(|e| format!("invalid trace JSON: {e}"));
    let rendered = if args.has("chrome") {
        trace_json_to_chrome(&parsed()?)?
    } else if args.has("json") {
        json
    } else {
        trace_json_to_text(&parsed()?)?
    };
    pipe_println(rendered.trim_end());
    Ok(())
}

/// `blot serve`: run the TCP serving layer over a store directory.
///
/// The workspace forbids `unsafe`, so there is no SIGTERM handler;
/// shutdown is cooperative — after EOF or a `quit`/`stop` line on stdin
/// the server drains in-flight requests and the command exits 0.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let store = open_store(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7407");
    let mut config = blot_server::ServerConfig::default();
    if let Some(n) = args.get_parsed::<usize>("max-conns")? {
        config.max_conns = n.max(1);
    }
    if let Some(n) = args.get_parsed::<usize>("queue-depth")? {
        config.queue_depth = n.max(1);
    }
    if let Some(n) = args.get_parsed::<usize>("handlers")? {
        config.handlers = n.max(1);
    }
    if let Some(n) = args.get_parsed::<usize>("max-batch")? {
        config.max_batch = n.max(1);
    }
    if let Some(ms) = args.get_parsed::<f64>("slow-log")? {
        config.slow_query_ms = ms.max(0.0);
    }
    let server = blot_server::Server::start(std::sync::Arc::new(store), addr, config)
        .map_err(|e| e.to_string())?;
    serve_until_quit(server, "serving")
}

/// Shared serve loop: announce, watch stdin for `quit`/`stop`/EOF,
/// drain on shutdown, report. Used by `serve` and `route serve`.
fn serve_until_quit(server: blot_server::Server, what: &str) -> Result<(), String> {
    pipe_println(&format!(
        "{what} on {} — EOF or `quit` on stdin shuts down",
        server.local_addr()
    ));
    // The server runs on its own threads; this one just reads stdin
    // until EOF (or a read error) or a `quit`/`stop` line.
    let mut line = String::new();
    while matches!(std::io::stdin().read_line(&mut line), Ok(n) if n > 0) {
        let word = line.trim();
        if word.eq_ignore_ascii_case("quit") || word.eq_ignore_ascii_case("stop") {
            break;
        }
        line.clear();
    }
    pipe_println("shutting down — draining in-flight requests");
    let report = server.shutdown(std::time::Duration::from_secs(30));
    let served = report.snapshot.counter("server.requests").unwrap_or(0);
    let shed = report.snapshot.counter("server.shed").unwrap_or(0);
    pipe_println(&format!(
        "drained (threads joined: {}, scan pool drained: {}) — {served} requests served, {shed} shed",
        report.threads_joined, report.pool_drained
    ));
    Ok(())
}

/// `blot route serve`: run a scatter-gather coordinator over N running
/// `blot serve` shards, itself fronted by the same TCP serving layer —
/// so `blot query --remote ADDR` is the ordinary remote client.
fn cmd_route_serve(args: &Args) -> Result<(), String> {
    use blot_router::{RouterConfig, RouterService, ShardMap, ShardSpec};
    let shards: Vec<String> = args
        .get_all("shard")
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    if shards.is_empty() {
        return Err("at least one --shard ADDR is required".into());
    }
    let version = args.get_parsed::<u64>("map-version")?.unwrap_or(1);
    let spec = if let Some(cuts) = args.get("cuts") {
        let axis = match args.get("axis").unwrap_or("t") {
            "x" => 0,
            "y" => 1,
            "t" => 2,
            other => return Err(format!("unknown --axis `{other}` (expected x|y|t)")),
        };
        let cuts: Vec<f64> = cuts
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| format!("bad number `{p}` in --cuts"))
            })
            .collect::<Result<_, _>>()?;
        ShardSpec::AxisCuts { axis, cuts }
    } else {
        ShardSpec::OidHash {
            shards: u32::try_from(shards.len()).map_err(|_| "too many shards".to_owned())?,
        }
    };
    let map = ShardMap::new(version, spec, shards).map_err(|e| e.to_string())?;
    let mut router_config = RouterConfig::default();
    if let Some(n) = args.get_parsed::<usize>("conns-per-shard")? {
        router_config.pool.conns_per_shard = n.max(1);
    }
    if let Some(n) = args.get_parsed::<u32>("shard-retries")? {
        router_config.pool.client.max_retries = n;
    }
    let n_shards = map.len();
    let service = RouterService::new(map, router_config).map_err(|e| e.to_string())?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7500");
    let mut config = blot_server::ServerConfig::default();
    if let Some(n) = args.get_parsed::<usize>("max-conns")? {
        config.max_conns = n.max(1);
    }
    if let Some(n) = args.get_parsed::<usize>("queue-depth")? {
        config.queue_depth = n.max(1);
    }
    if let Some(n) = args.get_parsed::<usize>("handlers")? {
        config.handlers = n.max(1);
    }
    let server = blot_server::Server::start(std::sync::Arc::new(service), addr, config)
        .map_err(|e| e.to_string())?;
    serve_until_quit(server, &format!("coordinating {n_shards} shard(s)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local, served and coordinator stats are one document shape, so
    /// pinning what documents render as pins all three: aligned metric
    /// tables (or a placeholder), the pruning line, the drift table,
    /// and a coordinator's shard lines.
    #[test]
    fn one_stats_document_renders_as_tables_drift_and_shards() {
        let doc = Json::parse(
            r#"{"enabled":true,
                "metrics":{"counters":{"a":1,"store.queries":12},"gauges":{"g":-2},
                           "histograms":{"bb":{"count":3,"sum":3,"mean":1,"p50":0.5,"p90":1.25,"p99":2}}},
                "pruning":{"units_skipped":4,"bytes_skipped":4096},
                "drift":{"band":{"lo":0.5,"hi":2,"min_samples":8},"calibrated":false,
                         "schemes":[{"scheme":"row-lzf","samples":9,"median_ratio":3.5,"mean_ratio":3.25,"flagged":true},
                                    {"scheme":"col-deflate","samples":0,"median_ratio":0,"mean_ratio":0,"flagged":false}]},
                "coordinator":true,
                "shards":[{"shard":0,"addr":"h:1","ok":true,"stats":{"pruning":{"units_skipped":3,"bytes_skipped":7}}},
                          {"shard":1,"addr":"h:2","ok":false,"error":"refused"}]}"#,
        )
        .expect("valid stats JSON");
        assert_eq!(
            stats::to_text(&doc),
            "counters:\n\
             \x20 a              1\n\
             \x20 store.queries  12\n\
             gauges:\n\
             \x20 g              -2\n\
             histograms (count / mean / p50 / p90 / p99):\n\
             \x20 bb             3  1.000  0.500  1.250  2.000\n\
             \n\
             zone-map pruning: 4 units skipped, 4096 bytes never fetched\n\
             \n\
             cost-model drift (median predicted/actual, band [0.5, 2], min 8 samples):\n\
             \x20 row-lzf           9 samples  median    3.500  mean    3.250  DRIFTED\n\
             \n\
             shards:\n\
             \x20 shard 0 h:1: ok (3 units / 7 bytes pruned)\n\
             \x20 shard 1 h:2: UNAVAILABLE (refused)\n"
        );

        let empty = Json::parse(
            r#"{"enabled":false,"metrics":{"counters":{},"gauges":{},"histograms":{}}}"#,
        )
        .expect("valid stats JSON");
        let text = stats::to_text(&empty);
        assert!(text.starts_with("metrics are compiled out"), "{text}");
        assert!(text.contains("(no metrics recorded)"), "{text}");
        assert!(text.contains("(no drift samples)"), "{text}");
        assert!(!text.contains("shards:"), "{text}");
    }

    /// `--store` and `--remote` both hand the renderers a span-JSON
    /// document, so pinning what one document renders as pins both:
    /// children sit below their parent whatever order they were
    /// recorded in, with their simulated cost and notes.
    #[test]
    fn one_span_document_renders_as_an_indented_tree_and_chrome_events() {
        let doc = Json::parse(
            r#"[{"trace":"aa","span":"02","parent":"01","name":"route","start_us":10,"dur_us":5,"sim_ms":0,"notes":{"replica":1,"units":6}},
                {"trace":"aa","span":"04","parent":"03","name":"unit.decode","start_us":30,"dur_us":400,"sim_ms":0,"notes":{"records":12}},
                {"trace":"aa","span":"03","parent":"01","name":"scan.unit","start_us":20,"dur_us":450,"sim_ms":5544.08,"notes":{"partition":0}},
                {"trace":"aa","span":"01","parent":null,"name":"store.query","start_us":10,"dur_us":1500,"sim_ms":33531.83,"notes":{"units":6}},
                {"trace":"bb","span":"06","parent":"05","name":"merge","start_us":90,"dur_us":2,"sim_ms":0,"notes":{}}]"#,
        )
        .expect("valid span JSON");
        assert_eq!(
            trace_json_to_text(&doc).expect("an array"),
            "trace aa:\n\
             \x20 store.query          1.500 ms  sim 33531.8 ms  units=6\n\
             \x20   route                0.005 ms  replica=1  units=6\n\
             \x20   scan.unit            0.450 ms  sim 5544.1 ms  partition=0\n\
             \x20     unit.decode          0.400 ms  records=12\n\
             trace bb:\n\
             \x20 merge                0.002 ms\n"
        );
        let chrome = Json::parse(&trace_json_to_chrome(&doc).expect("an array")).expect("JSON");
        let events = chrome.as_array().expect("an array of events");
        assert_eq!(events.len(), 5);
        let scan = events.get(2).expect("third event");
        assert_eq!(scan.get("name").and_then(Json::as_str), Some("scan.unit"));
        assert_eq!(scan.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(scan.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(scan.get("ts").and_then(Json::as_u64), Some(20));
        assert_eq!(scan.get("dur").and_then(Json::as_u64), Some(450));
        let args = scan.get("args").expect("args");
        assert_eq!(args.get("span").and_then(Json::as_str), Some("03"));
        assert_eq!(args.get("partition").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("sim_ms").and_then(Json::as_f64), Some(5544.08));
        let other = events.get(4).and_then(|e| e.get("tid"));
        assert_eq!(other.and_then(Json::as_u64), Some(2), "one lane per trace");

        assert!(trace_json_to_text(&Json::obj([])).is_err());
        let empty = trace_json_to_text(&Json::Arr(Vec::new()));
        assert_eq!(empty.as_deref(), Ok("(no spans recorded)\n"));
    }
}
