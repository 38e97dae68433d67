//! Pieces every workload shares: seeded inputs, the Krylov call with its
//! layer wrappers, and the FP64 output check.

use std::cell::Cell;

use fp16mg_core::{MatOp, Mg};
use fp16mg_fp::Scalar;
use fp16mg_krylov::{cg, gmres, LinOp, Preconditioner, SolveOptions, TimedPrecond};
use fp16mg_problems::{Problem, SolverKind};
use fp16mg_sgdia::kernels::{self, Par};
use fp16mg_sgdia::SgDia;

use crate::trace;

/// Relative residual every solve must reach.
pub const TOL: f64 = 1e-9;

/// Iteration cutoff of a benchmark solve. Every converging solve of the
/// workloads needs well under a third of it; a solve that reaches it is
/// a failure.
pub const MAX_ITERS: usize = 100;

/// A solve whose recomputed FP64 relative residual exceeds this failed,
/// whatever the solver reported.
pub const TRUE_RESIDUAL_BOUND: f64 = 10.0 * TOL;

/// A solve that reports convergence while its recomputed FP64 residual
/// is non-finite or above this is wrong output, not just a failure.
pub const WRONG_RESIDUAL_BOUND: f64 = 1e3 * TOL;

/// Seconds charged for a failed operation in the time metrics (PAR-2
/// style): larger than any successful operation of any workload, so
/// fixing a failure can only lower a time metric.
pub const PENALTY_S: f64 = 10.0;

/// Time samples as reported: a measured sample (`Some`) as it is, a
/// failed one (`None`) charged the penalty.
pub fn charged(samples: &[Option<f64>]) -> Vec<f64> {
    samples.iter().map(|s| s.unwrap_or(PENALTY_S)).collect()
}

/// The time of one problem (or trajectory, or probe) from its charged
/// samples: the fastest, or the penalty when at least half of them
/// failed. The host is shared, and other tenants slow the program by a
/// third or more for stretches from a fraction of a second to minutes;
/// the median reads how much of the run was slowed, the fastest sample
/// what the program takes when it is not. Failures weigh as they would
/// in the median: a problem that fails in most of its samples reads the
/// penalty, so fixing its failures can only lower the metric.
pub fn fastest(charged: &[f64]) -> f64 {
    let failed = charged.iter().filter(|&&t| t >= PENALTY_S).count();
    if charged.is_empty() {
        f64::NAN
    } else if 2 * failed >= charged.len() {
        PENALTY_S
    } else {
        charged.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// True when a recomputed relative residual is within `bound`; NaN is
/// not.
pub fn within(rel: f64, bound: f64) -> bool {
    rel <= bound
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's code.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A fresh right-hand side: the problem's source term with every entry
/// scaled by a seeded factor in `[0.75, 1.25)`, so it keeps the
/// application's shape and magnitude but differs on every solve.
pub fn seeded_rhs(base: &[f64], rng: &mut Rng) -> Vec<f64> {
    base.iter().map(|&b| b * (0.75 + 0.5 * rng.unit())).collect()
}

/// `‖b − A x‖₂ / ‖b‖₂` recomputed in FP64 outside every timed span.
pub fn true_rel_residual(a: &SgDia<f64>, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    kernels::residual(a, b, x, &mut r, Par::Seq);
    let nr = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    let nb = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    nr / nb
}

/// The problem's operator with every application timed (and spanned as
/// `krylov.matvec`): the benchmark-side view of the outer SpMV.
pub struct TimedOp<'a> {
    inner: MatOp<'a, f64>,
    secs: Cell<f64>,
}

impl LinOp<f64> for TimedOp<'_> {
    fn rows(&self) -> usize {
        LinOp::<f64>::rows(&self.inner)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let ((), s) = trace::timed("krylov.matvec", || self.inner.apply(x, y));
        self.secs.set(self.secs.get() + s);
    }
}

/// Spans each preconditioner application as `krylov.precond`; the time
/// itself is taken by the program's [`TimedPrecond`] around it.
struct SpanPrecond<M>(M);

impl<M: Preconditioner<f64>> Preconditioner<f64> for SpanPrecond<M> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        trace::timed("krylov.precond", || self.0.apply(r, z));
    }

    fn on_health_anomaly(&mut self) -> usize {
        self.0.on_health_anomaly()
    }
}

/// What one Krylov solve did.
pub struct SolveOut {
    pub secs: f64,
    pub iters: usize,
    pub converged: bool,
    /// The recomputed FP64 residual of the returned iterate.
    pub true_rel: f64,
    pub precond_s: f64,
    pub precond_calls: usize,
    pub matvec_s: f64,
    pub promotions: usize,
    pub x: Vec<f64>,
}

impl SolveOut {
    /// The failure cause, if any. A converged claim whose residual does
    /// not verify is also reported as wrong output by the caller.
    pub fn failure(&self) -> Option<&'static str> {
        if !self.x.iter().all(|v| v.is_finite()) {
            Some("non-finite")
        } else if !self.converged {
            Some("unconverged")
        } else if !within(self.true_rel, TRUE_RESIDUAL_BOUND) {
            Some("true-residual")
        } else {
            None
        }
    }

    /// True when the solver claimed convergence for a result that is
    /// far from verifying.
    pub fn wrong(&self) -> bool {
        self.converged && !within(self.true_rel, WRONG_RESIDUAL_BOUND)
    }

    /// The time charged to this solve: measured, or the penalty.
    pub fn charged(&self) -> f64 {
        if self.failure().is_some() {
            PENALTY_S
        } else {
            self.secs
        }
    }
}

/// Solves `A x = b` from a zero guess with the problem's Krylov method,
/// preconditioned by `mg`, and verifies the result in FP64.
pub fn krylov_solve<Pr: Scalar>(
    problem: &Problem,
    mg: Mg<Pr>,
    b: &[f64],
    par: Par,
) -> (SolveOut, Mg<Pr>) {
    let opts = SolveOptions {
        tol: TOL,
        max_iters: MAX_ITERS,
        record_history: false,
        ..Default::default()
    };
    let op = TimedOp { inner: MatOp::new(&problem.matrix, par), secs: Cell::new(0.0) };
    let promotions0 = mg.promotions().len();
    let mut pc = TimedPrecond::new(SpanPrecond(mg));
    let mut x = vec![0.0f64; b.len()];
    let (res, secs) = trace::timed("krylov.solve", || match problem.solver {
        SolverKind::Cg => cg(&op, &mut pc, b, &mut x, &opts),
        SolverKind::Gmres => gmres(&op, &mut pc, b, &mut x, &opts),
    });
    let precond_s = pc.elapsed().as_secs_f64();
    let precond_calls = pc.calls();
    let mg = pc.into_inner().0;
    let out = SolveOut {
        secs,
        iters: res.iters,
        converged: res.converged(),
        true_rel: true_rel_residual(&problem.matrix, b, &x),
        precond_s,
        precond_calls,
        matvec_s: op.secs.get(),
        promotions: mg.promotions().len() - promotions0,
        x,
    };
    (out, mg)
}
