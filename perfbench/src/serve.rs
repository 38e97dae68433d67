//! `serve`: one ordered closed-loop client over the MGW1 wire protocol
//! to the in-process networked daemon, with in-memory storage, plus the
//! same request's session run in-process without the daemon.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fp16mg_bench::loadgen::priority_for;
use fp16mg_bench::{serve_net, Combo, NetServeConfig};
use fp16mg_core::Mg;
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::{Problem, ProblemKind};
use fp16mg_runtime::net::{Client, ClientConfig, Endpoint, SubmitRequest};
use fp16mg_runtime::{
    run_session_with, CacheConfig, FaultStorage, HierarchyCache, SolveRequest, Storage,
};
use fp16mg_sgdia::kernels::Par;

use crate::common::{
    charged, fastest, krylov_solve, true_rel_residual, within, TOL, TRUE_RESIDUAL_BOUND,
    WRONG_RESIDUAL_BOUND,
};
use crate::layers::{Layer, Replay};
use crate::stats::{median, RunResult};
use crate::{trace, Ctx, Req, OUT_DIR};

/// Problem extent of the served stream: small, so the numerics are a
/// minor part of a request.
const SIZE: usize = 8;

/// An in-process probe runs after every this many wire requests: a
/// multiple of the daemon's 8-request class cycle, so every pass sends
/// the same mix of classes.
const PROBE_EVERY: u64 = 16;

/// Outcome of one in-process session of the served clean request.
struct Probe {
    /// The warm cache acquire before the session.
    acquire_s: f64,
    /// The session's measured time.
    secs: f64,
    iters: usize,
    failure: Option<&'static str>,
}

/// The daemon's clean request (laplace27, Mix16, the stream's
/// tolerance) run through the ladder on a cached hierarchy, as the
/// daemon runs it, but without the daemon.
fn inproc_session(problem: &Problem, cache: &mut HierarchyCache, res: &mut RunResult) -> Probe {
    let cfg = Combo::D16SetupScale.mg_config();
    let (got, acquire_s) =
        trace::timed("cache.acquire", || cache.acquire("laplace27", &problem.matrix, &cfg));
    let Ok((mg, _)) = got else {
        return Probe { acquire_s, secs: 0.0, iters: 0, failure: Some("setup-error") };
    };
    let mut req = SolveRequest::new("inproc", ProblemKind::Laplace27.build(SIZE), cfg);
    req.opts = SolveOptions { tol: TOL, record_history: false, ..Default::default() };
    let (out, secs) = trace::timed("ladder.session", || run_session_with(&req, Some(mg)));
    let rel =
        out.solution.as_deref().map(|x| true_rel_residual(&problem.matrix, &problem.rhs(), x));
    let failure = match (&out.result, rel) {
        (Err(_), _) => Some("unconverged"),
        (Ok(_), Some(r)) if within(r, TRUE_RESIDUAL_BOUND) => None,
        _ => Some("true-residual"),
    };
    if out.converged() && !rel.is_some_and(|r| within(r, WRONG_RESIDUAL_BOUND)) {
        res.wrong(format!("in-process session converged, FP64 residual {rel:?}"));
    }
    Probe { acquire_s, secs, iters: out.iters, failure }
}

pub fn run(ctx: &Ctx, res: &mut RunResult, layer: &mut Layer) -> Replay {
    let problem = trace::timed("problems.build", || ProblemKind::Laplace27.build(SIZE)).0;
    let mix16 = Combo::D16SetupScale.mg_config();
    let full64 = Combo::Full64.mg_config();

    let sock = PathBuf::from(OUT_DIR).join(format!("serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Unix(sock.clone());
    let mut cfg = NetServeConfig::new(endpoint.clone(), PathBuf::from("state"));
    cfg.size = SIZE;
    cfg.tol = TOL;
    cfg.quiet = true;
    let storage = Arc::new(FaultStorage::new());
    let shared: Arc<dyn Storage> = storage.clone();
    let server = std::thread::spawn(move || serve_net(&cfg, shared));

    let mut client = Client::new(ClientConfig {
        endpoint,
        seed: ctx.seed,
        max_attempts: 4,
        deadlines: [Duration::from_secs(10); 3],
        ..ClientConfig::default()
    });
    let mut cache = HierarchyCache::new(CacheConfig::default());
    let (mut latencies, mut pass_iters) = (Vec::new(), Vec::new());
    // Probe samples; `None` is a failed one.
    let (mut setup, mut probes, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup64, mut solve64) = (Vec::new(), Vec::new());
    let mut key = 0u64;
    let mut broken = false;
    let mut hier_bytes = 0;
    let mut hits = Vec::new();
    ctx.passes(1, |_| {
        for _ in 0..PROBE_EVERY {
            let req =
                SubmitRequest { key, size: SIZE as u32, tol: TOL, priority: priority_for(key) };
            trace::request(|| format!("key={key}"));
            let resubmits = client.stats.resubmissions;
            let (reply, t) = trace::timed("netserve.request", || client.submit(req));
            match reply {
                Ok(done) => {
                    let failure = if done.key != key {
                        res.wrong(format!("ack for key {} while waiting on {key}", done.key));
                        Some("wrong-key")
                    } else if done.duplicate && client.stats.resubmissions == resubmits {
                        res.wrong(format!("key {key}: duplicate ack for a first submission"));
                        Some("bad-duplicate")
                    } else if done.outcome.is_empty() {
                        Some("empty-outcome")
                    } else if done.outcome != "ok" {
                        Some("outcome-not-ok")
                    } else {
                        None
                    };
                    res.op(failure);
                    latencies.push(Req { secs: t, ok: failure.is_none() });
                }
                Err(e) => {
                    // Keys are strictly ordered: after a lost request the
                    // stream cannot continue. The error stays typed.
                    eprintln!("perfbench: key {key}: {e}");
                    res.op(Some("client-error"));
                    latencies.push(Req { secs: t, ok: false });
                    broken = true;
                    return false;
                }
            }
            key += 1;
        }
        // The in-process probe, two operations in `attempted`. Mix16: a
        // cold cache acquire of the served operator (what the daemon pays
        // on a miss), then the request's session on the warm cache.
        // Full64: set-up and solve of the same operator.
        trace::request(|| format!("inproc@{key}"));
        let mut cold = HierarchyCache::new(CacheConfig::default());
        let (got, t_cold) =
            trace::timed("cache.acquire", || cold.acquire("laplace27", &problem.matrix, &mix16));
        if let Ok((mg, _)) = &got {
            hier_bytes = mg.info().matrix_bytes + mg.workspace_bytes();
        }
        let p = inproc_session(&problem, &mut cache, res);
        let failure = if got.is_err() { Some("setup-error") } else { p.failure };
        res.op(failure);
        hits.push(p.acquire_s);
        setup.push(got.is_ok().then_some(t_cold));
        probes.push(p.failure.is_none().then_some(p.secs));
        steps.push(failure.is_none().then_some(t_cold + p.secs));
        let mut iters = p.iters;
        let (mg64, t) = trace::timed("core.setup", || Mg::<f64>::setup(&problem.matrix, &full64));
        setup64.push(mg64.is_ok().then_some(t));
        match mg64 {
            Ok(mg) => {
                let (out, _) = krylov_solve(&problem, mg, &problem.rhs(), Par::Seq);
                if out.wrong() {
                    res.wrong(format!(
                        "in-process Full64 converged claim, FP64 residual {:e}",
                        out.true_rel
                    ));
                }
                res.op(out.failure());
                solve64.push(out.failure().is_none().then_some(out.secs));
                iters += out.iters;
            }
            Err(_) => {
                res.op(Some("setup-error"));
                solve64.push(None);
            }
        }
        pass_iters.push(iters as f64);
        true
    });

    let mut pings = Vec::new();
    if ctx.trace && !broken {
        for _ in 0..64 {
            let (r, t) = trace::timed("net.ping", || client.ping());
            if r.is_ok() {
                pings.push(t);
            }
        }
    }
    match client.shutdown() {
        Ok(seq) if seq == key => {}
        Ok(seq) => res.wrong(format!("daemon drained at seq {seq}, client acked {key}")),
        Err(e) => res.wrong(format!("shutdown: {e}")),
    }
    let report = server.join();
    let _ = std::fs::remove_file(&sock);
    let report = match report {
        Ok(r) => r,
        Err(_) => {
            res.wrong("daemon thread panicked".into());
            Default::default()
        }
    };
    for v in &report.violations {
        res.wrong(format!("daemon violation: {v}"));
    }
    if !report.drained {
        res.wrong("daemon did not drain".into());
    }

    let mb = cache.cache_bytes() as f64;
    let time = |v: &[Option<f64>]| fastest(&charged(v));
    res.put("setup_s", time(&setup), setup.len());
    res.put("solve_s", time(&probes), probes.len());
    res.put("full64_setup_s", time(&setup64), setup64.len());
    res.put("full64_solve_s", time(&solve64), solve64.len());
    res.put("step_s", time(&steps), steps.len());
    res.put("iters", median(&pass_iters), pass_iters.len());
    res.put("mem_mb", (hier_bytes as f64 + mb) / 1e6, 1);
    let tail = crate::put_requests(res, std::slice::from_ref(&latencies));

    if ctx.trace {
        let reqs = latencies.len().max(1) as f64;
        let stats = cache.stats();
        let acquires =
            (stats.hits + stats.rescaled_hits + stats.rebuilds + stats.drift_invalidations).max(1)
                as f64;
        layer.insert("cache.hits", stats.hits as f64 / acquires);
        layer.insert(
            "cache.rebuilds",
            (stats.rebuilds + stats.drift_invalidations) as f64 / acquires,
        );
        layer.insert("cache.reuse_ratio", (stats.hits + stats.rescaled_hits) as f64 / acquires);
        layer.insert("cache.hit_s", median(&hits));
        layer.insert("cache.rebuild_s", median(&charged(&setup)));
        layer.insert("cache.bytes", mb);
        layer.insert("net.ping_p50_s", median(&pings));
        layer.insert(
            "net.busy",
            (report.counters.busy_connections + report.counters.busy_requests) as f64 / reqs,
        );
        layer.insert("net.resubmits", client.stats.resubmissions as f64 / reqs);
        layer.insert("storage.ops_per_req", storage.op_count() as f64 / reqs);
        layer.insert("serve.inproc_p50_s", median(&charged(&probes)));
        layer.insert("serve.req_tail_s", tail);
    }
    Replay { problems: vec![problem], config: mix16 }
}
