//! `timestep`: drifting-operator trajectories, each step served by the
//! hierarchy cache and solved through the retry ladder, with a cold
//! Full64 set-up and solve of the same step interleaved as baseline.

use std::collections::BTreeMap;

use fp16mg_bench::Combo;
use fp16mg_core::Mg;
use fp16mg_krylov::SolveOptions;
use fp16mg_problems::{step_rhs, Evolution, ProblemKind};
use fp16mg_runtime::{
    run_session_with, CacheConfig, CacheEventKind, HierarchyCache, Rung, SolveRequest,
};
use fp16mg_sgdia::kernels::Par;

use crate::common::{
    fastest, krylov_solve, true_rel_residual, within, Rng, MAX_ITERS, PENALTY_S, TOL,
    TRUE_RESIDUAL_BOUND, WRONG_RESIDUAL_BOUND,
};
use crate::layers::{Layer, Replay};
use crate::stats::{geomean, median, RunResult};
use crate::{trace, Ctx, Req};

/// Trajectories: two scalar problems and the three-temperature problem,
/// whose steps climb the retry ladder, small.
const TRAJECTORIES: [(ProblemKind, usize); 3] =
    [(ProblemKind::Laplace27, 32), (ProblemKind::Weather, 32), (ProblemKind::Rhd3T, 12)];

/// Every preset's front and jump-window cycles divide this many steps,
/// so a trajectory started at a multiple of it meets the same sequence
/// of sudden drifts whatever the seed; only the smooth drift differs.
const CYCLE: u64 = 1260;

/// Steps a trajectory runs from its start before it starts over with a
/// cold cache. A run measures whole windows, so the mix of hits,
/// rescales, rebuilds and escalations is the same whatever the number of
/// windows; with open-ended trajectories a faster host would reach later
/// steps, which escalate more often. The window spans two of rhd-3T's
/// 12-step escalation cycles and the first laplace27 escalations, from
/// step 18.
const WINDOW: usize = 24;

#[derive(Default)]
struct Acc {
    acquire: Vec<f64>,
    session: Vec<f64>,
    step: Vec<f64>,
    full64_setup: Vec<f64>,
    full64_solve: Vec<f64>,
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    bytes: usize,
}

fn kind_label(k: CacheEventKind) -> &'static str {
    match k {
        CacheEventKind::Hit => "hit",
        CacheEventKind::RescaledHit => "rescale",
        _ => "rebuild",
    }
}

pub fn run(ctx: &Ctx, res: &mut RunResult, layer: &mut Layer) -> Replay {
    let evolutions: Vec<Evolution> = TRAJECTORIES
        .iter()
        .map(|&(k, n)| trace::timed("problems.evolve", || Evolution::new(k, n)).0)
        .collect();
    let mut rng = Rng::new(ctx.seed, 2);
    let starts: Vec<u64> = evolutions.iter().map(|_| CYCLE * (rng.next_u64() % 64)).collect();
    let mix16 = Combo::D16SetupScale.mg_config();
    let full64 = Combo::Full64.mg_config();
    let mut caches: Vec<HierarchyCache> =
        evolutions.iter().map(|_| HierarchyCache::new(CacheConfig::default())).collect();
    let mut prev: Vec<Option<Vec<f64>>> = vec![None; evolutions.len()];
    let mut acc: Vec<Acc> = evolutions.iter().map(|_| Acc::default()).collect();
    let mut latencies: Vec<Vec<Req>> = vec![Vec::new(); evolutions.len()];
    let mut iters: Vec<Vec<f64>> = vec![Vec::new(); evolutions.len()];
    let (mut escalations, mut f64_finishes, mut vcycles) = (0usize, 0usize, 0usize);

    // One pass is one step of one trajectory, round-robin. A step makes
    // two operations in `attempted`: the Full64 solve and the Mix16 step.
    ctx.passes(evolutions.len() * WINDOW, |pass| {
        let i = pass % evolutions.len();
        let k = pass / evolutions.len() % WINDOW;
        if k == 0 {
            caches[i] = HierarchyCache::new(CacheConfig::default());
            prev[i] = None;
        }
        let evo = &evolutions[i];
        let mut step_iters = 0;
        let step = starts[i] + k as u64;
        // Inputs come from the `problems` layer, outside every timed span.
        let problem = trace::timed("problems.problem_at", || evo.problem_at(step)).0;
        let b = step_rhs(&problem, prev[i].as_deref());
        let name = problem.name;
        trace::request(|| format!("{name}@step{step}"));
        let a = &mut acc[i];

        // Full64 baseline of the same step: cold set-up, plain solve.
        let (mg64, t64) = trace::timed("core.setup", || Mg::<f64>::setup(&problem.matrix, &full64));
        match mg64 {
            Ok(mg64) => {
                a.full64_setup.push(t64);
                let (out, _) = krylov_solve(&problem, mg64, &b, Par::Seq);
                if out.wrong() {
                    res.wrong(format!(
                        "{name} step {step}: Full64 converged claim, FP64 residual {:e}",
                        out.true_rel
                    ));
                }
                res.op(out.failure());
                a.full64_solve.push(out.charged());
                step_iters += out.iters;
            }
            Err(_) => {
                res.op(Some("setup-error"));
                a.full64_setup.push(PENALTY_S);
                a.full64_solve.push(PENALTY_S);
            }
        }

        // Mix16 through the cache and the ladder.
        let (got, t_acq) =
            trace::timed("cache.acquire", || caches[i].acquire(name, &problem.matrix, &mix16));
        let (mg, kind) = match got {
            Ok(v) => v,
            Err(_) => {
                res.op(Some("setup-error"));
                a.acquire.push(PENALTY_S);
                a.session.push(PENALTY_S);
                a.step.push(2.0 * PENALTY_S);
                latencies[i].push(Req { secs: t_acq, ok: false });
                prev[i] = None;
                return true;
            }
        };
        a.acquire.push(t_acq);
        a.by_kind.entry(kind_label(kind)).or_default().push(t_acq);
        a.bytes = mg.info().matrix_bytes + mg.workspace_bytes() + caches[i].cache_bytes() as usize;
        let matrix = problem.matrix.clone();
        let mut req = SolveRequest::new(format!("{name}@{step}"), problem, mix16.clone());
        req.rhs = Some(b.clone());
        req.opts = SolveOptions {
            tol: TOL,
            max_iters: MAX_ITERS,
            record_history: false,
            ..Default::default()
        };
        let (outcome, t_sess) = trace::timed("ladder.session", || run_session_with(&req, Some(mg)));
        let escalated = outcome.report.attempts.len().saturating_sub(1);
        escalations += escalated;
        vcycles += outcome.vcycles;
        step_iters += outcome.iters;
        let true_rel = outcome.solution.as_deref().map(|x| true_rel_residual(&matrix, &b, x));
        let failure = match (&outcome.result, true_rel) {
            (Err(_), _) => Some("unconverged"),
            (Ok(_), None) => Some("no-solution"),
            (Ok(_), Some(r)) if !within(r, TRUE_RESIDUAL_BOUND) => Some("true-residual"),
            _ if escalated > 0 => Some("escalated"),
            _ => None,
        };
        if outcome.converged() && !true_rel.is_some_and(|r| within(r, WRONG_RESIDUAL_BOUND)) {
            res.wrong(format!("{name} step {step}: session converged, FP64 residual {true_rel:?}"));
        }
        if outcome.converged() && outcome.report.final_rung() == Some(Rung::RebuildF64) {
            f64_finishes += 1;
        }
        res.op(failure);
        // An escalated step failed its Mix16 attempt, even when the
        // ladder recovered it, so it is charged like any other failure.
        let charged = if failure.is_some() { PENALTY_S } else { t_sess };
        a.session.push(charged);
        a.step.push(t_acq + charged);
        latencies[i].push(Req { secs: t_acq + t_sess, ok: failure.is_none() });
        iters[i].push(step_iters as f64);
        prev[i] = if outcome.converged() { outcome.solution } else { None };
        true
    });

    let per =
        |f: fn(&Acc) -> &Vec<f64>| geomean(&acc.iter().map(|a| fastest(f(a))).collect::<Vec<_>>());
    let n: usize = acc.iter().map(|a| a.step.len()).sum();
    res.put("setup_s", per(|a| &a.acquire), n);
    res.put("solve_s", per(|a| &a.session), n);
    res.put("full64_setup_s", per(|a| &a.full64_setup), n);
    res.put("full64_solve_s", per(|a| &a.full64_solve), n);
    res.put("step_s", per(|a| &a.step), n);
    let total: f64 = iters.iter().map(|v| median(v)).sum();
    res.put("iters", total, iters.iter().map(Vec::len).sum());
    res.put("mem_mb", acc.iter().map(|a| a.bytes).sum::<usize>() as f64 / 1e6, acc.len());
    crate::put_requests(res, &latencies);

    if ctx.trace {
        let steps = n.max(1) as f64;
        let count = |k: &str| {
            acc.iter().map(|a| a.by_kind.get(k).map_or(0, Vec::len)).sum::<usize>() as f64
        };
        let time = |k: &str| {
            let m: Vec<f64> =
                acc.iter().filter_map(|a| a.by_kind.get(k)).map(|v| median(v)).collect();
            if m.is_empty() {
                0.0
            } else {
                geomean(&m)
            }
        };
        layer.insert("cache.hits", count("hit") / steps);
        layer.insert("cache.rescaled", count("rescale") / steps);
        layer.insert("cache.rebuilds", count("rebuild") / steps);
        layer.insert("cache.hit_s", time("hit"));
        layer.insert("cache.rescale_s", time("rescale"));
        layer.insert("cache.rebuild_s", time("rebuild"));
        layer.insert("cache.reuse_ratio", (count("hit") + count("rescale")) / steps);
        layer.insert("cache.bytes", caches.iter().map(|c| c.cache_bytes() as f64).sum());
        layer.insert("ladder.escalations", escalations as f64 / steps);
        layer.insert("ladder.f64_finishes", f64_finishes as f64 / steps);
        layer.insert("ladder.vcycles", vcycles as f64 / steps);
    }
    Replay { problems: evolutions.iter().map(|e| e.problem_at(0)).collect(), config: mix16 }
}
