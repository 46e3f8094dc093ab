//! Load generation against a `Server` (open and closed loops over a few
//! connections) and the serving layer's per-layer metrics, shared by
//! `serve_small` and `routed`.

use std::time::{Duration, Instant};

use crate::fixture::whole_passes;
use crate::spans::Tracer;
use crate::sut::{codec_probe, Answer, Conn, Cuboid};
use crate::util::{mean, ratio};
use crate::workload::{Checks, Layers};

/// One request as its caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub sent: Instant,
    pub done: Instant,
    /// Send time minus due time (open loop only).
    pub late_ms: f64,
    /// Completion minus due time (open loop) or minus send time (closed).
    pub latency_ms: f64,
    pub records: usize,
    pub sim_ms: f64,
    pub admission_ms: f64,
    pub batch_ms: f64,
    pub ok: bool,
}

impl Sample {
    fn new(due: Instant, sent: Instant, done: Instant, answer: Option<&Answer>) -> Self {
        Self {
            sent,
            done,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
            records: answer.map_or(0, |a| a.records.len()),
            sim_ms: answer.map_or(0.0, |a| a.sim_ms),
            admission_ms: answer.map_or(0.0, |a| a.admission_ms),
            batch_ms: answer.map_or(0.0, |a| a.batch_ms),
            ok: answer.is_some(),
        }
    }

    /// Send to reply, whatever the due time was.
    #[must_use]
    pub fn rtt_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// What `callers` connections observed, plus their `Overloaded` retries.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub errors: Vec<String>,
    pub retries: u64,
    /// Σ over connections of requests per second of its own loop.
    pub ops_per_s: f64,
    pub records_per_s: f64,
}

/// Runs `body(connection index, connection)` on `callers` threads.
fn on_connections<F>(addr: &str, callers: usize, body: F) -> Phase
where
    F: Fn(usize, &mut Conn, &mut Phase) + Sync,
{
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..callers)
            .map(|k| {
                let body = &body;
                scope.spawn(move || {
                    let mut mine = Phase::default();
                    match Conn::open(addr) {
                        Ok(mut conn) => {
                            body(k, &mut conn, &mut mine);
                            mine.retries = conn.retries();
                        }
                        Err(e) => mine.errors.push(format!("connect: {e}")),
                    }
                    mine
                })
            })
            .collect();
        for thread in threads {
            match thread.join() {
                Ok(mine) => {
                    phase.samples.extend(mine.samples);
                    phase.errors.extend(mine.errors);
                    phase.retries += mine.retries;
                    phase.ops_per_s += mine.ops_per_s;
                    phase.records_per_s += mine.records_per_s;
                }
                Err(_) => phase.errors.push("a caller thread panicked".into()),
            }
        }
    });
    phase
}

fn send(conn: &mut Conn, q: &Cuboid, due: Instant, into: &mut Phase) {
    let sent = Instant::now();
    let answer = conn.query(q);
    let done = Instant::now();
    if let Err(e) = &answer {
        into.errors.push(format!("query: {e}"));
    }
    into.samples
        .push(Sample::new(due, sent, done, answer.as_ref().ok()));
}

/// Open loop: request `i` of `passes` whole passes is due at
/// `start + i / qps`; connection `k` sends those with `i % callers == k`.
pub fn open_loop(addr: &str, callers: usize, queries: &[Cuboid], passes: usize, qps: f64) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    on_connections(addr, callers, |k, conn, mine| {
        for i in (k..passes * queries.len()).step_by(callers) {
            let due = start + Duration::from_secs_f64(i as f64 / qps);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            send(conn, &queries[i % queries.len()], due, mine);
        }
    })
}

/// Closed loop: connection `k` walks its share of the list (whole passes)
/// until `window` has elapsed.
pub fn closed_loop(addr: &str, callers: usize, queries: &[Cuboid], window: Duration) -> Phase {
    on_connections(addr, callers, |k, conn, mine| {
        let (_, elapsed) = whole_passes(window, || {
            for q in queries.iter().skip(k).step_by(callers) {
                let due = Instant::now();
                send(conn, q, due, mine);
            }
        });
        let records: usize = mine.samples.iter().map(|s| s.records).sum();
        mine.ops_per_s = ratio(mine.samples.len() as f64, elapsed.as_secs_f64());
        mine.records_per_s = ratio(records as f64, elapsed.as_secs_f64());
    })
}

/// Folds a phase's failures into `checks`.
pub fn count(phase: &Phase, checks: &mut Checks) {
    for sample in &phase.samples {
        if sample.ok {
            checks.ok();
        }
    }
    for e in &phase.errors {
        checks.fail(e.clone());
    }
}

pub fn latencies(phase: &Phase) -> Vec<f64> {
    phase
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_ms)
        .collect()
}

/// The serving layer on a workload's own traffic: the stages the replies
/// of `traced` report, the wire codec called directly on `probes`, a ping
/// floor, and what of the round trip none of them explains.
///
/// # Errors
///
/// A probe request failed, or something encoded did not decode.
pub fn server_layers(
    addr: &str,
    probes: &[Cuboid],
    traced: &Phase,
    (batch_size, requests, shed): (f64, u64, u64),
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    let answers: Vec<Answer> = probes
        .iter()
        .map(|q| conn.query(q))
        .collect::<Result<_, _>>()?;
    for _ in 0..200 {
        tracer.leaf("server.ping", || conn.ping())?;
    }
    for (q, answer) in probes.iter().zip(&answers) {
        let request = tracer.leaf("server.req_encode", || codec_probe::encode_request(q));
        if !tracer.leaf("server.req_decode", || {
            codec_probe::decode_request(&request)
        }) {
            return Err("an encoded request did not decode".into());
        }
        let reply = codec_probe::reply_for(answer);
        let n = answer.records.len();
        let encoded = tracer.counted(
            "server.reply_encode",
            || codec_probe::encode_reply(&reply),
            |_| n,
        );
        if u64::try_from(encoded.1.len())
            .map_or(true, |len| len > u64::from(codec_probe::MAX_PAYLOAD))
        {
            return Err("a reply exceeds wire::MAX_PAYLOAD".into());
        }
        tracer
            .counted(
                "server.reply_decode",
                || codec_probe::decode_reply(&encoded),
                |_| n,
            )
            .ok_or("an encoded reply did not decode")?;
    }
    let mean_us = |name: &str| mean(&tracer.micros(name));
    let of = |f: fn(&Sample) -> f64| mean(&traced.samples.iter().map(f).collect::<Vec<_>>());
    let (admission, batch) = (of(|s| s.admission_ms), of(|s| s.batch_ms));
    let client_codec_ms = (mean_us("server.req_encode") + mean_us("server.reply_decode")) / 1e3;
    let mut put = |name: &str, value: f64| layers.insert(name.to_owned(), value);
    put("server.ping_rtt_us", mean_us("server.ping"));
    put("server.req_encode_us", mean_us("server.req_encode"));
    put("server.req_decode_us", mean_us("server.req_decode"));
    put(
        "server.reply_encode_us_per_krec",
        tracer.micros_per("server.reply_encode") * 1e3,
    );
    put(
        "server.reply_decode_us_per_krec",
        tracer.micros_per("server.reply_decode") * 1e3,
    );
    put("server.admission_ms_mean", admission);
    put("server.batch_ms_mean", batch);
    put(
        "server.store_ms_mean",
        mean(&answers.iter().map(|a| a.store_ms).collect::<Vec<_>>()),
    );
    put(
        "server.wire_gap_ms",
        of(Sample::rtt_ms) - admission - batch - client_codec_ms,
    );
    put("server.batch_size_mean", batch_size);
    put("server.shed_frac", ratio(shed as f64, requests as f64));
    Ok(())
}
