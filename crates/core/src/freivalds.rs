//! Freivalds-checked matrix multiplication (§6.1).
//!
//! The product `C = A · B` is witnessed directly in phase-0 cells; a
//! phase-1 region then verifies `A·(B·r) == C·r` for the random vector
//! `r = (χ, χ², …)` derived from the transcript challenge χ, turning an
//! `O(s·k·t)` in-circuit computation into `O(s·k + k·t + s·t)` cells.
//!
//! The region's *structure* (rows, selectors, copy constraints) is laid out
//! at build time; its *values* depend on χ and are produced by
//! [`fill_jobs`] when the prover reaches phase 1. Every phase-1 cell is
//! recorded at build time with a [`Vs`] value spec, so fill is a direct
//! evaluation with no layout replay.

use crate::builder::{AValue, BuildError, CircuitBuilder, Gadget};
use std::collections::HashMap;
use zkml_ff::{Fr, PrimeField};
use zkml_plonk::{CellRef, Column};

/// How a phase-1 cell's value is derived from the challenge.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Vs {
    /// A literal (copied phase-0 operand).
    Lit(i64),
    /// `χ^e`.
    Power(u64),
    /// Prefix of a dot product: the sum of its first `upto` terms
    /// (`usize::MAX` = the full dot value).
    Partial {
        /// Which dot product.
        dot: DotId,
        /// Number of terms included.
        upto: usize,
    },
}

/// Identifies one of the region's dot products.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum DotId {
    /// `u_i = B_i · r` (row `i` of B against the power vector).
    U(usize),
    /// `v_i = C_i · r`.
    V(usize),
    /// `v'_i = A_i · u`.
    Vp(usize),
}

/// A deferred phase-1 witness job for one matrix multiplication.
pub(crate) struct FreivaldsJob {
    /// Rows of A (s x k).
    pub a: Vec<i64>,
    /// Rows of B (k x t).
    pub b: Vec<i64>,
    /// Rows of C (s x t), the claimed raw product.
    pub c: Vec<i64>,
    /// (s, k, t).
    pub dims: (usize, usize, usize),
    /// Cell assignments: (constraint-system column, row, value spec).
    pub cells: Vec<(usize, usize, Vs)>,
}

/// The value spec for the y-side operand of a dot's `idx`-th term.
fn y_spec(dot: DotId, idx: usize) -> Vs {
    match dot {
        DotId::U(_) | DotId::V(_) => Vs::Power(idx as u64 + 1),
        DotId::Vp(_) => Vs::Partial {
            dot: DotId::U(idx),
            upto: usize::MAX,
        },
    }
}

/// Lays out a Freivalds-checked matmul. `a_cells` is `s x k` row-major,
/// `b_cells` is `k x t`; returns the raw product cells (`s x t`, at double
/// scale — callers rescale).
///
/// A placer builder gets the same rows, selectors and copies but no
/// witness: the product cells hold zeros and no `FreivaldsJob` is
/// recorded.
pub fn freivalds_matmul(
    bld: &mut CircuitBuilder,
    a_cells: &[AValue],
    b_cells: &[AValue],
    s: usize,
    k: usize,
    t: usize,
) -> Result<Vec<AValue>, BuildError> {
    assert_eq!(a_cells.len(), s * k);
    assert_eq!(b_cells.len(), k * t);
    let n = bld.cfg.num_cols;
    if n < 5 {
        return Err(BuildError::Layout("freivalds needs >= 5 columns".into()));
    }
    bld.ensure_phase1();

    // Witness the raw product in phase-0 home cells.
    let placing = bld.is_placer();
    let mut c_vals = vec![0i64; s * t];
    if !placing {
        for i in 0..s {
            for j in 0..t {
                let mut acc = 0i64;
                for l in 0..k {
                    acc = acc
                        .checked_add(a_cells[i * k + l].v * b_cells[l * t + j].v)
                        .expect("freivalds product overflow");
                }
                c_vals[i * t + j] = acc;
            }
        }
    }
    let c_cells = bld.load_values(&c_vals);

    let mut job = (!placing).then(|| FreivaldsJob {
        a: a_cells.iter().map(|x| x.v).collect(),
        b: b_cells.iter().map(|x| x.v).collect(),
        c: c_vals,
        dims: (s, k, t),
        cells: Vec::new(),
    });
    let p1_cols: Vec<usize> = bld.p1_cols().to_vec();

    // --- Challenge powers (r_e = χ^e for e = 1..) ------------------------
    // Each ChalPow row is a full chain c_j = c_0 * χ^j; the carry c_0 is
    // copied from the previous row's last cell (or the constant 1).
    let per_row = n - 1;
    let rp = t.div_ceil(per_row);
    let one = bld.constant(1);
    let p1_start = *bld.p1_row_cursor();
    for i in 0..rp {
        let row = p1_row(bld, Gadget::ChalPow);
        let base = (i * per_row) as u64;
        if let Some(job) = job.as_mut() {
            for (j, col) in p1_cols.iter().enumerate() {
                job.cells.push((*col, row, Vs::Power(base + j as u64)));
            }
        }
        let carry_cell = CellRef {
            column: Column::Advice(p1_cols[0]),
            row,
        };
        if i == 0 {
            bld.copy_pub(one.cell, carry_cell);
        } else {
            bld.copy_pub(
                CellRef {
                    column: Column::Advice(p1_cols[n - 1]),
                    row: row - 1,
                },
                carry_cell,
            );
        }
    }
    let power_cellref = |e: u64| -> CellRef {
        debug_assert!(e >= 1, "power exponents start at 1");
        let idx = (e - 1) as usize;
        CellRef {
            column: Column::Advice(p1_cols[1 + idx % per_row]),
            row: p1_start + idx / per_row,
        }
    };

    // --- Bias-chained phase-1 dot products ---------------------------------
    let zero = bld.constant(0).cell;

    // u_i = B_i . r  (length-t dots).
    let mut u_cells = Vec::with_capacity(k);
    for i in 0..k {
        u_cells.push(p1_dot(
            bld,
            job.as_mut(),
            &p1_cols,
            zero,
            DotId::U(i),
            t,
            |j| (b_cells[i * t + j], power_cellref(j as u64 + 1)),
        ));
    }
    // v_i = C_i . r and v'_i = A_i . u must agree.
    for i in 0..s {
        let v = p1_dot(bld, job.as_mut(), &p1_cols, zero, DotId::V(i), t, |j| {
            (c_cells[i * t + j], power_cellref(j as u64 + 1))
        });
        let vp = p1_dot(bld, job.as_mut(), &p1_cols, zero, DotId::Vp(i), k, |j| {
            (a_cells[i * k + j], u_cells[j])
        });
        bld.copy_pub(v, vp);
    }

    if let Some(job) = job {
        bld.push_freivalds_job(job);
    }
    Ok(c_cells)
}

/// Allocates the next phase-1 row with `gadget`'s selector on.
fn p1_row(bld: &mut CircuitBuilder, gadget: Gadget) -> usize {
    let r = *bld.p1_row_cursor();
    *bld.p1_row_cursor() += 1;
    let sel = bld.selector_pub(gadget);
    bld.set_fixed_pub(sel, r, 1);
    r
}

/// Lays out one bias-chained phase-1 dot product over `len` terms, where
/// `term(j)` names the x operand and the y cell of term `j`; copies both
/// into their row and returns the cell holding the full sum. With a `job`,
/// every cell's value spec is recorded for [`fill_jobs`].
fn p1_dot(
    bld: &mut CircuitBuilder,
    mut job: Option<&mut FreivaldsJob>,
    p1_cols: &[usize],
    zero: CellRef,
    dot: DotId,
    len: usize,
    term: impl Fn(usize) -> (AValue, CellRef),
) -> CellRef {
    assert!(len > 0, "a phase-1 dot needs at least one term");
    let n = p1_cols.len();
    let m = (n - 2) / 2;
    let mut prev_z = zero;
    for chunk_start in (0..len).step_by(m) {
        let chunk_len = m.min(len - chunk_start);
        let row = p1_row(bld, Gadget::DotBias(true));
        for j in 0..chunk_len {
            let (src, y) = term(chunk_start + j);
            let xcell = CellRef {
                column: Column::Advice(p1_cols[j]),
                row,
            };
            bld.copy_pub(src.cell, xcell);
            let ycell = CellRef {
                column: Column::Advice(p1_cols[m + j]),
                row,
            };
            bld.copy_pub(y, ycell);
            if let Some(job) = job.as_deref_mut() {
                job.cells.push((p1_cols[j], row, Vs::Lit(src.v)));
                job.cells
                    .push((p1_cols[m + j], row, y_spec(dot, chunk_start + j)));
            }
        }
        let bias_cell = CellRef {
            column: Column::Advice(p1_cols[n - 2]),
            row,
        };
        bld.copy_pub(prev_z, bias_cell);
        if let Some(job) = job.as_deref_mut() {
            job.cells.push((
                p1_cols[n - 2],
                row,
                Vs::Partial {
                    dot,
                    upto: chunk_start,
                },
            ));
            job.cells.push((
                p1_cols[n - 1],
                row,
                Vs::Partial {
                    dot,
                    upto: chunk_start + chunk_len,
                },
            ));
        }
        prev_z = CellRef {
            column: Column::Advice(p1_cols[n - 1]),
            row,
        };
    }
    prev_z
}

/// Computes all phase-1 column values for the recorded jobs.
///
/// Jobs are independent, so their cell values are evaluated in parallel on
/// the `zkml-par` pool; the writes are then scattered serially (each job
/// owns disjoint rows, and every cell value is a pure function of the job
/// and the challenge, so the result is thread-count independent).
///
/// Returns `(cs_column, values)` pairs, each of length `rows`.
pub(crate) fn fill_jobs(
    jobs: &[FreivaldsJob],
    p1_cols: &[usize],
    challenges: &[Fr],
    rows: usize,
) -> Vec<(usize, Vec<Fr>)> {
    let chi = challenges[0];
    let mut columns: Vec<(usize, Vec<Fr>)> =
        p1_cols.iter().map(|c| (*c, vec![Fr::ZERO; rows])).collect();
    let col_index: HashMap<usize, usize> =
        p1_cols.iter().enumerate().map(|(i, c)| (*c, i)).collect();

    let assignments: Vec<Vec<(usize, usize, Fr)>> = zkml_par::par_map(jobs.len(), |job_idx| {
        let job = &jobs[job_idx];
        eval_job_cells(job, chi)
    });
    for job_cells in assignments {
        for (col, row, v) in job_cells {
            columns[col_index[&col]].1[row] = v;
        }
    }
    columns
}

/// Evaluates every recorded cell of one job against the challenge.
fn eval_job_cells(job: &FreivaldsJob, chi: Fr) -> Vec<(usize, usize, Fr)> {
    let mut out = Vec::with_capacity(job.cells.len());
    {
        let (_, k, t) = job.dims;
        let max_e = job
            .cells
            .iter()
            .filter_map(|(_, _, vs)| match vs {
                Vs::Power(e) => Some(*e),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut powers = Vec::with_capacity(max_e as usize + 1);
        let mut cur = Fr::ONE;
        for _ in 0..=max_e {
            powers.push(cur);
            cur *= chi;
        }
        let u: Vec<Fr> = (0..k)
            .map(|i| {
                (0..t)
                    .map(|j| Fr::from_i64(job.b[i * t + j]) * powers[j + 1])
                    .sum()
            })
            .collect();
        let dot_terms = |dot: DotId| -> Vec<Fr> {
            match dot {
                DotId::U(i) => (0..t)
                    .map(|j| Fr::from_i64(job.b[i * t + j]) * powers[j + 1])
                    .collect(),
                DotId::V(i) => (0..t)
                    .map(|j| Fr::from_i64(job.c[i * t + j]) * powers[j + 1])
                    .collect(),
                DotId::Vp(i) => (0..k)
                    .map(|j| Fr::from_i64(job.a[i * k + j]) * u[j])
                    .collect(),
            }
        };
        let mut prefix_cache: HashMap<DotId, Vec<Fr>> = HashMap::new();
        for (col, row, vs) in &job.cells {
            let v = match vs {
                Vs::Lit(x) => Fr::from_i64(*x),
                Vs::Power(e) => powers[*e as usize],
                Vs::Partial { dot, upto } => {
                    let prefixes = prefix_cache.entry(*dot).or_insert_with(|| {
                        let terms = dot_terms(*dot);
                        let mut p = Vec::with_capacity(terms.len() + 1);
                        let mut acc = Fr::ZERO;
                        p.push(acc);
                        for term in terms {
                            acc += term;
                            p.push(acc);
                        }
                        p
                    });
                    let idx = (*upto).min(prefixes.len() - 1);
                    prefixes[idx]
                }
            };
            out.push((*col, *row, v));
        }
    }
    out
}
