//! The adversarial mutation harness.
//!
//! Soundness testing by perturbation: starting from a *satisfied* witness,
//! mutate one assigned cell at a time (add 1) and assert the mock checker
//! notices. A mutation no constraint notices — a **survivor** — is exactly
//! an underconstrained cell: a malicious prover could commit that value
//! freely. Lookup tables get the dual treatment: one in-use table entry is
//! flipped and the checker must flag the input rows that relied on it.
//!
//! Challenges are frozen at synthesis time (see `MockProver` docs): this
//! models an adversary tampering with one committed cell after the
//! transcript fixed the randomness, which is the attack the permutation /
//! lookup / gate arguments must individually reject.

use std::collections::HashMap;
use zkml::CompiledCircuit;
use zkml_ff::{Fr, PrimeField};
use zkml_plonk::{CellRef, Column, Expression, MockProver, Rotation};

/// Outcome of mutating every assigned cell (and lookup entry) of a circuit.
pub struct MutationReport {
    /// Case name.
    pub name: String,
    /// Column count the circuit was compiled at.
    pub num_cols: usize,
    /// Number of single-cell mutations attempted.
    pub cells_mutated: usize,
    /// Number of lookup-table entries flipped.
    pub lookup_flips: usize,
    /// Mutations the checker did NOT reject (underconstrained cells).
    pub survivors: Vec<String>,
    /// The cells behind `survivors` (witness mutations only, not lookup
    /// flips), for cross-checking against the static analyzer's free-cell
    /// report.
    pub survivor_cells: Vec<CellRef>,
}

/// Mutates every assigned cell of `compiled` by +1 and collects survivors.
///
/// Errors if the unmutated witness does not satisfy the circuit (the
/// harness requires a clean baseline to be meaningful).
pub fn mutate_compiled(
    name: &str,
    num_cols: usize,
    compiled: &CompiledCircuit,
) -> Result<MutationReport, String> {
    let mut mock = compiled
        .mock()
        .map_err(|e| format!("{name}: mock synthesis failed: {e}"))?;
    if let Err(fs) = mock.verify() {
        return Err(format!(
            "{name}: baseline witness unsatisfied ({} failures; first: {})",
            fs.len(),
            fs[0]
        ));
    }
    let cells = compiled.assigned_cells();
    let mut survivors = Vec::new();
    let mut survivor_cells = Vec::new();
    for cell in &cells {
        let orig = mock.cell(*cell);
        mock.set_cell(*cell, orig + Fr::ONE);
        if mock.check_affected(*cell).is_empty() {
            survivors.push(format!("{name}: cell {cell:?} mutation survived"));
            survivor_cells.push(*cell);
        }
        mock.set_cell(*cell, orig);
    }
    let (lookup_flips, mut lookup_survivors) = flip_lookup_entries(&mut mock, compiled, name);
    survivors.append(&mut lookup_survivors);
    Ok(MutationReport {
        name: name.to_string(),
        num_cols,
        cells_mutated: cells.len(),
        lookup_flips,
        survivors,
        survivor_cells,
    })
}

/// For each lookup argument, flips one fixed table cell backing an entry
/// that (a) occurs exactly once in the table and (b) is used by at least
/// one input row, then asserts the checker rejects. Returns the number of
/// flips performed and any survivors.
///
/// Uniqueness matters: table padding duplicates the default entry, and
/// flipping one copy of a duplicated tuple removes nothing from the table.
fn flip_lookup_entries(
    mock: &mut MockProver,
    compiled: &CompiledCircuit,
    name: &str,
) -> (usize, Vec<String>) {
    let usable = mock.usable_rows();
    let mut flips = 0;
    let mut survivors = Vec::new();
    let lookups = compiled.cs.lookups.clone();
    for (li, lk) in lookups.iter().enumerate() {
        let tuple = |mock: &MockProver, exprs: &[Expression], row: usize| -> Vec<u8> {
            let mut bytes = Vec::with_capacity(exprs.len() * 32);
            for e in exprs {
                bytes.extend_from_slice(&mock.eval_expr(e, row).to_bytes());
            }
            bytes
        };
        let mut table_occ: HashMap<Vec<u8>, usize> = HashMap::new();
        for row in 0..usable {
            *table_occ.entry(tuple(mock, &lk.table, row)).or_insert(0) += 1;
        }
        let mut input_rows: HashMap<Vec<u8>, usize> = HashMap::new();
        for row in 0..usable {
            input_rows
                .entry(tuple(mock, &lk.inputs, row))
                .or_insert(row);
        }
        // A unique, in-use table entry whose first expression is a plain
        // fixed-column query we can flip directly.
        let Some((col, rot)) = lk.table.iter().find_map(|e| match e {
            Expression::Fixed(c, r) => Some((*c, *r)),
            _ => None,
        }) else {
            continue;
        };
        let target = (0..usable).find(|&row| {
            let t = tuple(mock, &lk.table, row);
            table_occ.get(&t) == Some(&1) && input_rows.contains_key(&t)
        });
        let Some(row) = target else {
            continue;
        };
        let cell = CellRef {
            column: Column::Fixed(col),
            row: apply_rotation(row, rot, 1usize << mock.k()),
        };
        flips += 1;
        let orig = mock.cell(cell);
        mock.set_cell(cell, orig + Fr::ONE);
        if mock.is_satisfied() {
            survivors.push(format!(
                "{name}: lookup {li} ('{}') survived a flipped table entry at row {row}",
                lk.name
            ));
        }
        mock.set_cell(cell, orig);
    }
    (flips, survivors)
}

fn apply_rotation(row: usize, rot: Rotation, n: usize) -> usize {
    (row as i64 + rot.0 as i64).rem_euclid(n as i64) as usize
}

/// Cross-checks mutations against the *real* prover and verifier: for each
/// cell in `cells`, proves from the mutated grid and requires that either
/// proving fails or the verifier rejects the proof. Only valid for
/// challenge-free circuits (phase-1 values would not match a real
/// transcript); callers gate on `GadgetCase::uses_challenges`.
pub fn cross_check_real_verifier(
    compiled: &CompiledCircuit,
    cells: &[CellRef],
    params: &zkml_pcs::Params,
    rng_seed: u64,
) -> Result<(), String> {
    use rand::SeedableRng;
    let pk = compiled
        .keygen(params)
        .map_err(|e| format!("keygen failed: {e}"))?;
    let mut mock = compiled.mock().map_err(|e| format!("mock failed: {e}"))?;
    for (i, cell) in cells.iter().enumerate() {
        let orig = mock.cell(*cell);
        mock.set_cell(*cell, orig + Fr::ONE);
        let witness = mock
            .to_witness()
            .ok_or_else(|| "circuit uses challenges; cannot cross-check".to_string())?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed + i as u64);
        let accepted = match zkml_plonk::create_proof_committed(
            params,
            &pk,
            &witness,
            &mut rng,
            &[],
            &zkml_plonk::CommittedWeights::empty(),
        ) {
            Err(_) => false,
            Ok(proof) => {
                let instance = zkml_plonk::WitnessSource::instance(&witness);
                zkml_plonk::verify_proof(params, &pk.vk, &instance, &proof, &[], None).is_ok()
            }
        };
        mock.set_cell(*cell, orig);
        if accepted {
            return Err(format!(
                "real verifier accepted a proof with mutated cell {cell:?}"
            ));
        }
    }
    Ok(())
}
