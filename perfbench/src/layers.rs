//! Per-layer measurements of the traced run that do not come from the
//! workload's own passes: host calibration, the `fp` conversion kernel,
//! the `sgdia` kernel replay on each problem's finest level, and the
//! `core` set-up split, V-cycle and level-by-level replay.

use std::collections::BTreeMap;
use std::hint::black_box;

use fp16mg_core::{prolong_add, restrict, GalerkinChain, Mg, MgConfig, StoredMatrix};
use fp16mg_fp::{Precision, F16};
use fp16mg_problems::Problem;
use fp16mg_sgdia::kernels::{self, BlockDiagInv, Par};
use fp16mg_sgdia::model::Format;
use fp16mg_sgdia::scaling::{self, GChoice};
use fp16mg_sgdia::{Layout, SgDia};

use crate::common::Rng;
use crate::stats::{geomean, median};
use crate::trace;

/// Per-layer values by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// What a workload hands to the kernel and V-cycle replay of the
/// traced run: its problems (finest operators) and its Mix16 config.
pub struct Replay {
    pub problems: Vec<Problem>,
    pub config: MgConfig,
}

/// Shared last-level cache of the host the figures in the README were
/// taken on; the triad arrays are sized to four times it.
const L3_BYTES: usize = 300 << 20;

/// Median seconds per call of `f`: five batches, each long enough to
/// fill about `budget_s / 5`.
fn per_call(name: &'static str, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let ((), once) = trace::timed(name, &mut f);
    let reps = ((budget_s / 5.0 / once.max(1e-7)).ceil() as usize).clamp(1, 10_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            trace::timed(name, || {
                for _ in 0..reps {
                    f();
                }
            })
            .1 / reps as f64
        })
        .collect();
    median(&batches)
}

/// STREAM triad `a = b + s·c` over three f64 arrays whose total size is
/// at least four times the shared L3, single-threaded: the host's
/// sustainable bandwidth, measured in the same run as the kernels.
pub fn host_triad(out: &mut Layer) {
    let n = 4 * L3_BYTES / (3 * 8) + 1;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let t = per_call("host.triad", 1.0, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
    });
    out.insert("host.triad_gbs", (3 * 8 * n) as f64 / t / 1e9);
}

/// Throughput of the F16C widening kernel (2 bytes read, 4 written per
/// element) on 4 Mi elements.
pub fn fp_widen(out: &mut Layer) {
    let n = 4 << 20;
    let mut rng = Rng::new(7, 11);
    let src: Vec<F16> = (0..n).map(|_| F16::from(rng.unit() as f32)).collect();
    let mut dst = vec![0.0f32; n];
    let t = per_call("fp.widen_f16", 0.15, || {
        fp16mg_fp::simd::widen_f16(black_box(&src), &mut dst);
        black_box(&mut dst);
    });
    out.insert("fp.widen_f16_gbs", (6 * n) as f64 / t / 1e9);
}

/// The operator as the FP16 store path sees it: diagonally scaled
/// (setup-then-scale, automatic G) when the scaling applies, otherwise
/// unchanged.
fn scaled(a: &SgDia<f64>) -> SgDia<f64> {
    let mut s = a.to_layout(Layout::Soa);
    if scaling::scale_symmetric::<f32>(&mut s, GChoice::Auto, F16::MAX_F64).is_err() {
        s = a.to_layout(Layout::Soa);
    }
    s
}

/// Model bytes of one kernel pass: every stored entry at its Table-2
/// SG-DIA width plus `vectors` vectors at the compute precision.
fn kernel_bytes(
    a_entries: usize,
    value: Precision,
    rows: usize,
    vectors: usize,
    compute: usize,
) -> f64 {
    a_entries as f64 * Format::SgDia.bytes_per_nnz(value, 0.0) + (vectors * rows * compute) as f64
}

/// Replays the smoother and residual kernels on each problem's finest
/// level in FP16 (f32 compute, as in Mix16) and FP64 (as in Full64),
/// plus the FP64 SpMV of the outer Krylov operator.
pub fn sgdia_replay(problems: &[Problem], out: &mut Layer) {
    const BUDGET: f64 = 0.03;
    let mut rows_by_kernel: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut speedups, mut par_effs) = (Vec::new(), Vec::new());
    for p in problems {
        let a64 = p.matrix.to_layout(Layout::Soa);
        let a16 = scaled(&a64).convert::<F16>();
        let rows = a64.rows();
        let entries = a64.stored_entries();
        let mut rng = Rng::new(3, rows as u64);
        let b64: Vec<f64> = (0..rows).map(|_| rng.unit()).collect();
        let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
        let (mut x64, mut r64) = (b64.clone(), vec![0.0f64; rows]);
        let (mut x32, mut r32) = (b32.clone(), vec![0.0f32; rows]);
        let d16 = BlockDiagInv::<f32>::from_matrix(&a16).ok();
        let d64 = BlockDiagInv::<f64>::from_matrix(&a64).ok();
        let (Some(d16), Some(d64)) = (d16, d64) else { continue };

        let r16 = per_call("sgdia.residual", BUDGET, || {
            kernels::residual(&a16, &b32, &x32, &mut r32, Par::Seq)
        });
        let r16p = per_call("sgdia.residual", BUDGET, || {
            kernels::residual(&a16, &b32, &x32, &mut r32, Par::Threads(2))
        });
        let gf16 =
            per_call("sgdia.gs_fwd", BUDGET, || kernels::gs_forward(&a16, &d16, &b32, &mut x32));
        let gb16 =
            per_call("sgdia.gs_bwd", BUDGET, || kernels::gs_backward(&a16, &d16, &b32, &mut x32));
        let r64t = per_call("sgdia.residual", BUDGET, || {
            kernels::residual(&a64, &b64, &x64, &mut r64, Par::Seq)
        });
        let gf64 =
            per_call("sgdia.gs_fwd", BUDGET, || kernels::gs_forward(&a64, &d64, &b64, &mut x64));
        let gb64 =
            per_call("sgdia.gs_bwd", BUDGET, || kernels::gs_backward(&a64, &d64, &b64, &mut x64));
        let sp64 = per_call("sgdia.spmv", BUDGET, || kernels::spmv(&a64, &b64, &mut r64, Par::Seq));

        let f16 = |vectors| kernel_bytes(entries, Precision::F16, rows, vectors, 4);
        let f64b = |vectors| kernel_bytes(entries, Precision::F64, rows, vectors, 8);
        for (name, bytes, t) in [
            ("sgdia.residual.f16.gbs", f16(3), r16),
            ("sgdia.gs_fwd.f16.gbs", f16(3), gf16),
            ("sgdia.gs_bwd.f16.gbs", f16(3), gb16),
            ("sgdia.residual.f64.gbs", f64b(3), r64t),
            ("sgdia.gs_fwd.f64.gbs", f64b(3), gf64),
            ("sgdia.gs_bwd.f64.gbs", f64b(3), gb64),
            ("sgdia.spmv.f64.gbs", f64b(2), sp64),
        ] {
            rows_by_kernel.entry(name).or_default().push(bytes / t / 1e9);
        }
        speedups.push((r64t + gf64 + gb64) / (r16 + gf16 + gb16));
        par_effs.push(r16 / (2.0 * r16p));
    }
    for (name, v) in rows_by_kernel {
        out.insert(name, geomean(&v));
    }
    let speedup = geomean(&speedups);
    out.insert("sgdia.f16_speedup", speedup);
    out.insert(
        "sgdia.bound_frac",
        speedup / Format::SgDia.speedup_bound(Precision::F64, Precision::F16, 0.0),
    );
    out.insert("sgdia.par_eff", geomean(&par_effs));
}

/// The `core` layer per problem under the workload's Mix16 config:
/// Galerkin chain and assembly split of the set-up, the V-cycle
/// (`Mg::apply_pr`) at the workload's parallelism and its 1- vs
/// 2-thread efficiency, the level-by-level V-cycle replay, and the
/// hierarchy's precision and byte accounting.
pub fn core_replay(problems: &[Problem], base: &MgConfig, out: &mut Layer) {
    let mut chain_s = Vec::new();
    let mut assemble_s = Vec::new();
    let mut vcycle_s = Vec::new();
    let mut vcycle_gbs = Vec::new();
    let mut level0 = Vec::new();
    let mut par_eff = Vec::new();
    let mut op_cx = Vec::new();
    let (mut fp16_levels, mut max_underflow, mut bytes, mut mat_b, mut ws_b) =
        (0, 0.0f64, 0.0, 0, 0);
    for p in problems {
        let mut ts = Vec::new();
        let mut chain = None;
        for _ in 0..3 {
            let (c, t) = trace::timed("core.chain", || GalerkinChain::build(&p.matrix, base));
            ts.push(t);
            chain = c.ok();
        }
        chain_s.push(median(&ts));
        let Some(chain) = chain else { continue };
        let mut seq_cfg = base.clone();
        seq_cfg.par = Par::Seq;
        let mut par_cfg = base.clone();
        par_cfg.par = Par::Threads(2);
        let mut ts = Vec::new();
        let mut mg = None;
        for _ in 0..3 {
            let (m, t) =
                trace::timed("core.assemble", || Mg::<f32>::setup_from_chain(&chain, base));
            ts.push(t);
            mg = m.ok();
        }
        assemble_s.push(median(&ts));
        let (Some(mg), Ok(mut seq), Ok(mut par2)) = (
            mg,
            Mg::<f32>::setup_from_chain(&chain, &seq_cfg),
            Mg::<f32>::setup_from_chain(&chain, &par_cfg),
        ) else {
            continue;
        };
        let rows = mg.rows();
        let mut rng = Rng::new(5, rows as u64);
        let r: Vec<f32> = (0..rows).map(|_| rng.unit() as f32).collect();
        let mut e = vec![0.0f32; rows];
        let t1 = per_call("core.vcycle", 0.1, || seq.apply_pr(&r, &mut e));
        let t2 = per_call("core.vcycle", 0.1, || par2.apply_pr(&r, &mut e));
        let t = if base.par == Par::Seq { t1 } else { t2 };
        let info = mg.info();
        let smoothed = &info.levels[..info.levels.len().saturating_sub(1)];
        let sweeps = (base.nu1 + base.nu2 + 1) as f64;
        let b: f64 = smoothed.iter().map(|l| sweeps * l.value_bytes as f64).sum();
        vcycle_s.push(t);
        vcycle_gbs.push(b / t / 1e9);
        bytes += b;
        par_eff.push(t1 / (2.0 * t2));
        op_cx.push(info.operator_complexity);
        mat_b += info.matrix_bytes;
        ws_b += mg.workspace_bytes();
        for l in smoothed.iter().filter(|l| l.precision == Precision::F16) {
            fp16_levels += 1;
            if let Some(a) = &l.audit {
                max_underflow = max_underflow.max(a.underflow_loss_fraction());
            }
        }
        let precisions: Vec<Precision> = smoothed.iter().map(|l| l.precision).collect();
        if let Some(f) = level0_share(&chain, &precisions, base) {
            level0.push(f);
        }
    }
    out.insert("core.chain_s", geomean(&chain_s));
    out.insert("core.assemble_s", geomean(&assemble_s));
    out.insert("core.vcycle_s", geomean(&vcycle_s));
    out.insert("core.vcycle_bytes", bytes);
    out.insert("core.vcycle_gbs", geomean(&vcycle_gbs));
    out.insert("core.level0_frac", geomean(&level0));
    out.insert("core.par_eff", geomean(&par_eff));
    out.insert("core.fp16_levels", fp16_levels as f64);
    out.insert("core.max_underflow", max_underflow);
    out.insert("core.matrix_bytes", mat_b as f64);
    out.insert("core.workspace_bytes", ws_b as f64);
    out.insert("core.op_complexity", geomean(&op_cx));
}

/// The finest level's share of one V-cycle replayed level by level from
/// the chain: per smoothed level, pre-smooth, residual, restriction,
/// prolongation and post-smooth at the level's stored precision. The
/// coarsest direct solve is not replayed.
fn level0_share(chain: &GalerkinChain, precisions: &[Precision], cfg: &MgConfig) -> Option<f64> {
    let mats = chain.matrices();
    let mut per_level = Vec::new();
    for (l, &prec) in precisions.iter().enumerate() {
        let next = mats.get(l + 1)?;
        let a = &mats[l];
        let s = scaled(a);
        let stored = StoredMatrix::truncate(&s, prec, Layout::Soa);
        let dinv = BlockDiagInv::<f32>::from_matrix(&s).ok()?;
        let (gf, gc) = (*a.grid(), *next.grid());
        let n = a.rows();
        let f = vec![1.0f32; n];
        let (mut u, mut r) = (vec![0.0f32; n], vec![0.0f32; n]);
        let mut fc = vec![0.0f32; next.rows()];
        let t = per_call("core.level", 0.02, || {
            for _ in 0..cfg.nu1 {
                stored.gs_forward(&dinv, &f, &mut u);
            }
            stored.residual(&f, &u, &mut r, cfg.par);
            restrict(&gf, &gc, &r, &mut fc);
            prolong_add(&gf, &gc, &fc, &mut u);
            for _ in 0..cfg.nu2 {
                stored.gs_backward(&dinv, &f, &mut u);
            }
        });
        per_level.push(t);
    }
    let total: f64 = per_level.iter().sum();
    per_level.first().map(|t0| t0 / total)
}
