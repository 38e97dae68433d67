//! `fig8-scalar` and `vector-2t`: cold Mix16 and Full64 set-ups of each
//! problem, interleaved, each followed by a seeded Krylov solve.

use fp16mg_bench::Combo;
use fp16mg_core::{Mg, MgConfig};
use fp16mg_fp::Scalar;
use fp16mg_problems::{Problem, ProblemKind};
use fp16mg_sgdia::kernels::Par;

use crate::common::{charged, fastest, krylov_solve, seeded_rhs, Rng};
use crate::layers::{Layer, Replay};
use crate::stats::{geomean, median, RunResult};
use crate::{trace, Ctx, Req};

/// A solve workload: which problems, how large, how parallel.
pub struct Spec {
    pub kinds: &'static [ProblemKind],
    pub n: usize,
    pub par: Par,
}

/// The paper's Fig. 8/9 scalar problems, single-threaded. At this size
/// oil misses the tolerance with both configurations; that failure is
/// part of the workload.
pub const FIG8_SCALAR: Spec = Spec {
    kinds: &[
        ProblemKind::Laplace27,
        ProblemKind::Laplace27E8,
        ProblemKind::Rhd,
        ProblemKind::Oil,
        ProblemKind::Weather,
    ],
    n: 40,
    par: Par::Seq,
};

/// The vector (multi-component) problems at two threads: block kernels
/// and `sgdia::par`'s per-call threads.
pub const VECTOR_2T: Spec = Spec {
    kinds: &[ProblemKind::Rhd3T, ProblemKind::Oil4C, ProblemKind::Solid3D],
    n: 16,
    par: Par::Threads(2),
};

const FULL64: usize = 0;
const MIX16: usize = 1;

/// Samples of one (problem, combo). Time samples are measured seconds,
/// `None` for a failed operation.
#[derive(Default)]
struct Acc {
    setup: Vec<Option<f64>>,
    solve: Vec<Option<f64>>,
    step: Vec<Option<f64>>,
    /// Every solve, for the request metrics.
    latency: Vec<Req>,
    precond: Vec<f64>,
    matvec: Vec<f64>,
    other: Vec<f64>,
    iters: Vec<f64>,
    calls: Vec<f64>,
    promotions: usize,
    bytes: usize,
}

fn config(combo: Combo, par: Par) -> MgConfig {
    let mut cfg = combo.mg_config();
    cfg.par = par;
    cfg
}

/// Cold set-ups per visit; the solves use the last hierarchy. Set-up is
/// cheap next to the solves, so repeating it buys set-up samples.
const SETUPS: usize = 3;

/// One visit of a (problem, combo): cold set-ups, then a seeded solve
/// on the last hierarchy. The solve is the one operation counted in
/// `attempted`; a set-up error fails it.
fn run_combo<Pr: Scalar>(
    p: &Problem,
    cfg: &MgConfig,
    b: &[f64],
    acc: &mut Acc,
    res: &mut RunResult,
) {
    let mut built = Err(0.0);
    for _ in 0..SETUPS {
        let (mg, t) = trace::timed("core.setup", || Mg::<Pr>::setup(&p.matrix, cfg));
        acc.setup.push(mg.is_ok().then_some(t));
        built = mg.map(|m| (m, t)).map_err(|_| t);
        if built.is_err() {
            break;
        }
    }
    let (mg, setup) = match built {
        Ok(b) => b,
        Err(t) => {
            res.op(Some("setup-error"));
            acc.solve.push(None);
            acc.step.push(None);
            acc.latency.push(Req { secs: t, ok: false });
            return;
        }
    };
    acc.bytes = mg.info().matrix_bytes + mg.workspace_bytes();
    let (out, _) = krylov_solve(p, mg, b, cfg.par);
    if out.wrong() {
        res.wrong(format!(
            "{}: solver reported convergence but the FP64 residual is {:e}",
            p.name, out.true_rel
        ));
    }
    let ok = out.failure().is_none();
    res.op(out.failure());
    acc.solve.push(ok.then_some(out.secs));
    acc.step.push(ok.then_some(setup + out.secs));
    acc.latency.push(Req { secs: out.secs, ok });
    acc.precond.push(out.precond_s);
    acc.matvec.push(out.matvec_s);
    acc.other.push((out.secs - out.precond_s - out.matvec_s).max(0.0));
    acc.iters.push(out.iters as f64);
    acc.calls.push(out.precond_calls as f64);
    acc.promotions += out.promotions;
}

pub fn run(spec: &Spec, ctx: &Ctx, res: &mut RunResult, layer: &mut Layer) -> Replay {
    let build = |k: &ProblemKind| trace::timed("problems.build", || k.build(spec.n)).0;
    let combos = [config(Combo::Full64, spec.par), config(Combo::D16SetupScale, spec.par)];
    let mut rng = Rng::new(ctx.seed, 1);
    let mut acc: Vec<[Acc; 2]> = spec.kinds.iter().map(|_| Default::default()).collect();
    // One pass visits one problem, round-robin, with both combos
    // interleaved; which combo goes first alternates between rounds.
    ctx.passes(spec.kinds.len(), |pass| {
        let (pi, round) = (pass % spec.kinds.len(), pass / spec.kinds.len());
        // A fresh operator on every visit: where its pages land in the
        // caches changes the solve time by tens of percent, and a run
        // should average over placements instead of keeping one.
        let p = build(&spec.kinds[pi]);
        let base = p.rhs();
        let order = if (pi + round) % 2 == 0 { [FULL64, MIX16] } else { [MIX16, FULL64] };
        for c in order {
            let b = seeded_rhs(&base, &mut rng);
            trace::request(|| format!("{}#{round}/{}", p.name, ["full64", "mix16"][c]));
            let a = &mut acc[pi][c];
            if c == FULL64 {
                run_combo::<f64>(&p, &combos[c], &b, a, res);
            } else {
                run_combo::<f32>(&p, &combos[c], &b, a, res);
            }
        }
        true
    });

    let time = |v: &[Option<f64>]| fastest(&charged(v));
    println!(
        "{:<14} {:<7} {:>10} {:>10} {:>7} {:>6}",
        "problem", "combo", "setup_s", "solve_s", "iters", "solves"
    );
    let problems: Vec<Problem> = spec.kinds.iter().map(build).collect();
    for (p, a) in problems.iter().zip(&acc) {
        for (c, label) in [(FULL64, "Full64"), (MIX16, "Mix16")] {
            let a = &a[c];
            let (su, so, it) = (time(&a.setup), time(&a.solve), median(&a.iters));
            println!(
                "{:<14} {label:<7} {su:>10.4} {so:>10.4} {it:>7.1} {:>6}",
                p.name,
                a.solve.len()
            );
        }
    }
    // A time metric: per problem the time of combo `c` (`fastest`), then
    // the geometric mean over problems.
    let mut put_time = |name, c: usize, f: fn(&Acc) -> &Vec<Option<f64>>| {
        let m: Vec<f64> = acc.iter().map(|a| time(f(&a[c]))).collect();
        res.put(name, geomean(&m), acc.iter().map(|a| f(&a[c]).len()).sum());
    };
    put_time("setup_s", MIX16, |a| &a.setup);
    put_time("solve_s", MIX16, |a| &a.solve);
    put_time("full64_setup_s", FULL64, |a| &a.setup);
    put_time("full64_solve_s", FULL64, |a| &a.solve);
    put_time("step_s", MIX16, |a| &a.step);
    let per = |c: usize, f: fn(&Acc) -> &Vec<f64>| -> f64 {
        geomean(&acc.iter().map(|a| median(f(&a[c]))).collect::<Vec<_>>())
    };
    let count =
        |c: usize, f: fn(&Acc) -> &Vec<f64>| -> usize { acc.iter().map(|a| f(&a[c]).len()).sum() };
    let iters: f64 = acc.iter().flat_map(|a| a.iter().map(|c| median(&c.iters))).sum();
    res.put("iters", iters, count(MIX16, |a| &a.iters) + count(FULL64, |a| &a.iters));
    let bytes: usize = acc.iter().map(|a| a[MIX16].bytes).sum();
    res.put("mem_mb", bytes as f64 / 1e6, acc.len());
    let latencies: Vec<Vec<Req>> = acc.iter().flatten().map(|a| a.latency.clone()).collect();
    crate::put_requests(res, &latencies);

    if ctx.trace {
        let mix = |f: fn(&Acc) -> &Vec<f64>| per(MIX16, f);
        layer.insert("krylov.precond_s", mix(|a| &a.precond));
        layer.insert("krylov.matvec_s", mix(|a| &a.matvec));
        layer.insert("krylov.other_s", mix(|a| &a.other));
        let mean = |f: fn(&Acc) -> &Vec<f64>| {
            let all: Vec<f64> = acc.iter().flat_map(|a| f(&a[MIX16]).iter().copied()).collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        };
        layer.insert("krylov.precond_calls", mean(|a| &a.calls));
        layer.insert("krylov.iters_per_solve", mean(|a| &a.iters));
        let solves = acc.iter().map(|a| a[MIX16].solve.len()).sum::<usize>().max(1);
        let promotions: usize = acc.iter().map(|a| a[MIX16].promotions).sum();
        layer.insert("core.promotions", promotions as f64 / solves as f64);
    }
    let [_, mix16] = combos;
    Replay { problems, config: mix16 }
}
