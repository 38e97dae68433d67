//! The repository benchmark: one seeded run of one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-scalar --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Prints a table of every metric with its unit and sample count, then,
//! as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics and writes
//! the spans to `.bench_out/`. Exits 1 when an output check fails and 2
//! on bad arguments. See `perfbench/README.md` for every definition.

mod common;
mod layers;
mod serve;
mod solve;
mod stats;
mod timestep;
mod trace;

use std::time::Instant;

use stats::{geomean, percentile, tail_quantile, RunResult};

/// Where spans and the serve socket go, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["fig8-scalar", "vector-2t", "timestep", "serve"];

/// The end-to-end metrics, in report order.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("full64_setup_s", "s"),
    ("full64_solve_s", "s"),
    ("step_s", "s"),
    ("iters", "count"),
    ("ok_frac", "frac"),
    ("mem_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("req_p50_s", "s"),
    ("req_per_s", "1/s"),
];

/// The per-layer metrics, in report order. A layer a workload does not
/// call reports 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("host.triad_gbs", "GB/s"),
    ("fp.widen_f16_gbs", "GB/s"),
    ("sgdia.residual.f16.gbs", "GB/s"),
    ("sgdia.gs_fwd.f16.gbs", "GB/s"),
    ("sgdia.gs_bwd.f16.gbs", "GB/s"),
    ("sgdia.residual.f64.gbs", "GB/s"),
    ("sgdia.gs_fwd.f64.gbs", "GB/s"),
    ("sgdia.gs_bwd.f64.gbs", "GB/s"),
    ("sgdia.spmv.f64.gbs", "GB/s"),
    ("sgdia.f16_speedup", "x"),
    ("sgdia.bound_frac", "frac"),
    ("sgdia.bw_frac", "frac"),
    ("sgdia.par_eff", "frac"),
    ("core.chain_s", "s"),
    ("core.assemble_s", "s"),
    ("core.vcycle_s", "s"),
    ("core.vcycle_bytes", "bytes"),
    ("core.vcycle_gbs", "GB/s"),
    ("core.level0_frac", "frac"),
    ("core.par_eff", "frac"),
    ("core.fp16_levels", "count"),
    ("core.max_underflow", "frac"),
    ("core.promotions", "count/solve"),
    ("core.matrix_bytes", "bytes"),
    ("core.workspace_bytes", "bytes"),
    ("core.op_complexity", "x"),
    ("krylov.precond_s", "s"),
    ("krylov.matvec_s", "s"),
    ("krylov.other_s", "s"),
    ("krylov.precond_calls", "count/solve"),
    ("krylov.iters_per_solve", "count/solve"),
    ("cache.hits", "count/op"),
    ("cache.rescaled", "count/op"),
    ("cache.rebuilds", "count/op"),
    ("cache.hit_s", "s"),
    ("cache.rescale_s", "s"),
    ("cache.rebuild_s", "s"),
    ("cache.reuse_ratio", "frac"),
    ("cache.bytes", "bytes"),
    ("ladder.escalations", "count/step"),
    ("ladder.f64_finishes", "count/step"),
    ("ladder.vcycles", "count/step"),
    ("net.ping_p50_s", "s"),
    ("net.busy", "count/req"),
    ("net.resubmits", "count/req"),
    ("storage.ops_per_req", "count/req"),
    ("serve.inproc_p50_s", "s"),
    ("serve.req_tail_s", "s"),
    ("fail_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("host.threads", "count"),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// (position in the round, traced, wall seconds) of every pass.
    pass_times: std::cell::RefCell<Vec<(usize, bool, f64)>>,
    /// Resident set before the workload starts, in MB.
    rss_base_mb: f64,
}

impl Ctx {
    /// Runs `pass(i)` for i = 0, 1, … in whole rounds of `round` passes
    /// until `seconds` have elapsed, or until a pass returns false.
    /// Stopping only at round boundaries keeps the mix of problems, and so
    /// of failures, the same in every run. In a traced run, each position
    /// in the round records spans in every other round, so the two sets
    /// of pass times give the tracing overhead.
    pub fn passes(&self, round: usize, mut pass: impl FnMut(usize) -> bool) {
        let t0 = Instant::now();
        let mut i = 0;
        // A traced run needs two rounds, so every position has a traced
        // and an untraced pass.
        let min = round * if self.trace { 2 } else { 1 };
        while i % round != 0 || i < min || t0.elapsed().as_secs_f64() < self.seconds {
            let on = self.trace && (i % round + i / round) % 2 == 1;
            trace::set_recording(on);
            let t = Instant::now();
            let more = pass(i);
            self.pass_times.borrow_mut().push((i % round, on, t.elapsed().as_secs_f64()));
            trace::set_recording(false);
            i += 1;
            if !more {
                break;
            }
        }
    }

    /// Tracing overhead: per position in the round (the same problem or
    /// step kind), median traced over median untraced pass time; the
    /// geometric mean over positions, minus one.
    fn trace_overhead(&self) -> f64 {
        let times = self.pass_times.borrow();
        let slots = times.iter().map(|t| t.0 + 1).max().unwrap_or(0);
        let ratios: Vec<f64> = (0..slots)
            .filter_map(|slot| {
                let pick = |on: bool| -> Vec<f64> {
                    times.iter().filter(|t| t.0 == slot && t.1 == on).map(|t| t.2).collect()
                };
                let (off, on) = (pick(false), pick(true));
                (!off.is_empty() && !on.is_empty())
                    .then(|| stats::median(&on) / stats::median(&off))
            })
            .collect();
        geomean(&ratios) - 1.0
    }
}

/// One request of a closed loop: its measured latency and whether it
/// succeeded.
#[derive(Clone, Copy)]
pub struct Req {
    pub secs: f64,
    pub ok: bool,
}

/// The request metrics of a closed loop with one client, from the
/// requests of each kind (a problem and combo, a trajectory, or the wire
/// stream).
///
/// - `req_p50_s`: the geometric mean over kinds of the median latency,
///   with every failed request charged [`common::PENALTY_S`].
/// - `req_per_s`: successful requests per second of client busy time,
///   failed requests' time included.
///
/// So more failures can only make either worse. Returns the tail latency
/// of the successful requests: the geometric mean over kinds of p99, or
/// of the highest percentile that still has ten samples beyond it. (With
/// failures charged, the tail of `serve` would read the penalty in every
/// run, since one request in eight fails by design.)
pub fn put_requests(res: &mut RunResult, per_kind: &[Vec<Req>]) -> f64 {
    let (mut p50, mut tail) = (Vec::new(), Vec::new());
    for reqs in per_kind.iter().filter(|r| !r.is_empty()) {
        let samples: Vec<Option<f64>> = reqs.iter().map(|r| r.ok.then_some(r.secs)).collect();
        let mut s = common::charged(&samples);
        s.sort_by(f64::total_cmp);
        p50.push(percentile(&s, 0.5));
        let mut good: Vec<f64> = samples.iter().flatten().copied().collect();
        if !good.is_empty() {
            good.sort_by(f64::total_cmp);
            tail.push(percentile(&good, tail_quantile(good.len())));
        }
    }
    let n: usize = per_kind.iter().map(Vec::len).sum();
    let ok = per_kind.iter().flatten().filter(|r| r.ok).count();
    let busy: f64 = per_kind.iter().flatten().map(|r| r.secs).sum();
    res.put("req_p50_s", geomean(&p50), n);
    res.put("req_per_s", ok as f64 / busy, n);
    geomean(&tail)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// The command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut tr) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => workload = Some(v.clone()),
            "--workload" => usage(&format!("unknown workload {v}")),
            "--seed" => seed = Some(v.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s = v.parse::<f64>().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                tr = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, tr)
    else {
        usage("--workload, --seed, --seconds and --trace are required")
    };
    Args { workload, seed, seconds, trace }
}

/// One reported metric: name, unit, value, samples.
type Row = (&'static str, &'static str, f64, usize);

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        pass_times: Default::default(),
        rss_base_mb: stats::rss_mb("VmRSS"),
    };
    let (res, rows) = measure(&args.workload, &ctx);
    std::process::exit(report(&args, &res, &rows));
}

/// Runs the workload in this process. In a traced run, the calibration
/// and replays follow the measured passes and the rows are the per-layer
/// metrics; otherwise they are the end-to-end metrics.
fn measure(workload: &str, ctx: &Ctx) -> (RunResult, Vec<Row>) {
    trace::install();
    let mut res = RunResult::default();
    let mut layer = layers::Layer::new();
    let replay = match workload {
        "fig8-scalar" => solve::run(&solve::FIG8_SCALAR, ctx, &mut res, &mut layer),
        "vector-2t" => solve::run(&solve::VECTOR_2T, ctx, &mut res, &mut layer),
        "timestep" => timestep::run(ctx, &mut res, &mut layer),
        _ => serve::run(ctx, &mut res, &mut layer),
    };
    let operators: usize = replay.problems.iter().map(|p| p.matrix.value_bytes()).sum();
    println!(
        "working set: finest operators {:.1} MB (f64); host L2 2 x 2 MiB, shared L3 300 MiB",
        operators as f64 / 1e6
    );
    let fail_frac = res.failed() as f64 / res.attempted.max(1) as f64;
    res.put("ok_frac", 1.0 - fail_frac, res.attempted as usize);
    res.put("peak_rss_mb", stats::rss_mb("VmHWM") - ctx.rss_base_mb, 1);
    if !ctx.trace {
        let rows = END_TO_END
            .iter()
            .map(|&(name, unit)| match res.metrics.iter().find(|m| m.name == name) {
                Some(m) => (name, unit, m.value, m.samples),
                None => (name, unit, f64::NAN, 0),
            })
            .collect();
        return (res, rows);
    }

    // Calibration and replays run after the measured passes, so they
    // cannot disturb them, and are recorded as spans.
    trace::set_recording(true);
    layers::host_triad(&mut layer);
    layers::fp_widen(&mut layer);
    layers::sgdia_replay(&replay.problems, &mut layer);
    layers::core_replay(&replay.problems, &replay.config, &mut layer);
    trace::set_recording(false);
    layer.insert("trace.overhead_frac", ctx.trace_overhead());
    layer.insert("fail_frac", fail_frac);
    let bw = layer.get("sgdia.residual.f16.gbs").zip(layer.get("host.triad_gbs"));
    layer.insert("sgdia.bw_frac", bw.map_or(0.0, |(k, h)| k / h));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    layer.insert("host.threads", threads as f64);
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    match trace::write_jsonl(&path) {
        Ok(n) => {
            layer.insert("trace.spans", n as f64);
            eprintln!("perfbench: {n} spans written to {}", path.display());
        }
        Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
    }
    print_self_times();
    let rows = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layer.get(name).copied().unwrap_or(0.0), 1))
        .collect();
    (res, rows)
}

/// Prints the table and, as the last line, the JSON result. Returns the
/// exit code: 1 when an output check failed.
fn report(args: &Args, res: &RunResult, rows: &[Row]) -> i32 {
    let failed = res.failed();
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{:<26} {:>16} {:<12} {:>8}", "metric", "value", "unit", "samples");
    for (name, unit, value, n) in rows {
        println!("{name:<26} {value:>16.6} {unit:<12} {n:>8}");
    }
    println!(
        "attempted {}  failed {}  fail_frac {:.4}",
        res.attempted,
        failed,
        failed as f64 / res.attempted.max(1) as f64
    );
    for (cause, n) in &res.failures {
        println!("  failed {cause}: {n}");
    }
    for w in &res.wrong {
        println!("  OUTPUT CHECK FAILED: {w}");
    }
    let correct = res.wrong.is_empty() && rows.iter().all(|m| m.2.is_finite());
    let body: Vec<String> = rows
        .iter()
        .map(|(name, unit, value, _)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        body.join(", ")
    );
    i32::from(!correct)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Layer self time from the recorded spans (stderr, for the reader).
fn print_self_times() {
    let mut by_layer: std::collections::BTreeMap<&str, f64> = Default::default();
    eprintln!("{:<22} {:>8} {:>12} {:>12}", "span", "calls", "total_s", "self_s");
    for (name, (calls, total, own)) in trace::self_times() {
        eprintln!("{name:<22} {calls:>8} {total:>12.6} {own:>12.6}");
        *by_layer.entry(name.split('.').next().unwrap_or(name)).or_insert(0.0) += own;
    }
    for (layer, own) in by_layer {
        eprintln!("layer {layer:<16} self {own:.6} s");
    }
}
