//! Binary serialization of verifying and proving keys.
//!
//! The paper (§8) ships the verifier as a standalone binary that takes the
//! model configuration, verifying key, proof and public values. This module
//! provides the verifying-key encoding: the constraint-system structure
//! (including gate expressions) plus the fixed/sigma commitments. It also
//! encodes proving keys (verifying key + preprocessed column values) so a
//! proving service can spill generated keys to disk and skip keygen on warm
//! restarts.

use crate::circuit::{ConstraintSystem, Gate, Lookup, BLINDING_FACTORS};
use crate::expression::{Column, Expression, Rotation};
use crate::keygen::{ProvingKey, VerifyingKey, WeightCommitment};
use crate::PlonkError;
use zkml_ff::{FftField, Fr};
use zkml_pcs::{ReadError, Reader, Writer};

fn write_column(w: &mut Writer, c: &Column) {
    match c {
        Column::Instance(i) => {
            w.bytes(&[0]);
            w.u64(*i as u64);
        }
        Column::Advice(i) => {
            w.bytes(&[1]);
            w.u64(*i as u64);
        }
        Column::Fixed(i) => {
            w.bytes(&[2]);
            w.u64(*i as u64);
        }
        Column::Committed(i) => {
            w.bytes(&[3]);
            w.u64(*i as u64);
        }
    }
}

fn read_column(r: &mut Reader) -> Result<Column, ReadError> {
    let tag = r.u32()? as u8; // see write note below
    let i = r.u64()? as usize;
    match tag {
        0 => Ok(Column::Instance(i)),
        1 => Ok(Column::Advice(i)),
        2 => Ok(Column::Fixed(i)),
        3 => Ok(Column::Committed(i)),
        _ => Err(ReadError("bad column tag")),
    }
}

// NOTE: the Writer has no single-byte read; columns/tags are therefore
// written as u32 for symmetric reads.
fn write_tag(w: &mut Writer, t: u32) {
    w.u32(t);
}

fn write_column32(w: &mut Writer, c: &Column) {
    match c {
        Column::Instance(i) => {
            write_tag(w, 0);
            w.u64(*i as u64);
        }
        Column::Advice(i) => {
            write_tag(w, 1);
            w.u64(*i as u64);
        }
        Column::Fixed(i) => {
            write_tag(w, 2);
            w.u64(*i as u64);
        }
        Column::Committed(i) => {
            write_tag(w, 3);
            w.u64(*i as u64);
        }
    }
}

fn write_expr(w: &mut Writer, e: &Expression) {
    match e {
        Expression::Constant(c) => {
            write_tag(w, 0);
            w.scalar(c);
        }
        Expression::Instance(i, rot) => {
            write_tag(w, 1);
            w.u64(*i as u64);
            w.u64(rot.0 as u32 as u64);
        }
        Expression::Advice(i, rot) => {
            write_tag(w, 2);
            w.u64(*i as u64);
            w.u64(rot.0 as u32 as u64);
        }
        Expression::Fixed(i, rot) => {
            write_tag(w, 3);
            w.u64(*i as u64);
            w.u64(rot.0 as u32 as u64);
        }
        Expression::Challenge(i) => {
            write_tag(w, 4);
            w.u64(*i as u64);
        }
        Expression::Neg(a) => {
            write_tag(w, 5);
            write_expr(w, a);
        }
        Expression::Sum(a, b) => {
            write_tag(w, 6);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expression::Product(a, b) => {
            write_tag(w, 7);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expression::Scaled(a, s) => {
            write_tag(w, 8);
            write_expr(w, a);
            w.scalar(s);
        }
    }
}

fn read_expr(r: &mut Reader, depth: usize) -> Result<Expression, ReadError> {
    if depth > 64 {
        return Err(ReadError("expression too deep"));
    }
    let tag = r.u32()?;
    Ok(match tag {
        0 => Expression::Constant(r.scalar()?),
        1 => Expression::Instance(r.u64()? as usize, Rotation(r.u64()? as u32 as i32)),
        2 => Expression::Advice(r.u64()? as usize, Rotation(r.u64()? as u32 as i32)),
        3 => Expression::Fixed(r.u64()? as usize, Rotation(r.u64()? as u32 as i32)),
        4 => Expression::Challenge(r.u64()? as usize),
        5 => Expression::Neg(Box::new(read_expr(r, depth + 1)?)),
        6 => Expression::Sum(
            Box::new(read_expr(r, depth + 1)?),
            Box::new(read_expr(r, depth + 1)?),
        ),
        7 => Expression::Product(
            Box::new(read_expr(r, depth + 1)?),
            Box::new(read_expr(r, depth + 1)?),
        ),
        8 => Expression::Scaled(Box::new(read_expr(r, depth + 1)?), r.scalar()?),
        _ => return Err(ReadError("bad expression tag")),
    })
}

fn write_exprs(w: &mut Writer, es: &[Expression]) {
    w.u64(es.len() as u64);
    for e in es {
        write_expr(w, e);
    }
}

fn read_exprs(r: &mut Reader) -> Result<Vec<Expression>, ReadError> {
    let n = r.u64()? as usize;
    if n > 1 << 20 {
        return Err(ReadError("expression list too long"));
    }
    (0..n).map(|_| read_expr(r, 0)).collect()
}

/// Serializes a constraint system.
pub fn write_cs(w: &mut Writer, cs: &ConstraintSystem) {
    w.u64(cs.num_instance as u64);
    w.u64(cs.num_advice as u64);
    w.u64(cs.num_fixed as u64);
    w.u64(cs.num_committed as u64);
    w.u64(cs.num_challenges as u64);
    w.u64(cs.advice_phase.len() as u64);
    for p in &cs.advice_phase {
        w.u64(*p as u64);
    }
    w.u64(cs.gates.len() as u64);
    for g in &cs.gates {
        let name = g.name.as_bytes();
        w.u64(name.len() as u64);
        w.bytes(name);
        write_exprs(w, &g.polys);
    }
    w.u64(cs.lookups.len() as u64);
    for l in &cs.lookups {
        let name = l.name.as_bytes();
        w.u64(name.len() as u64);
        w.bytes(name);
        write_exprs(w, &l.inputs);
        write_exprs(w, &l.table);
    }
    w.u64(cs.permutation_columns.len() as u64);
    for c in &cs.permutation_columns {
        write_column32(w, c);
    }
    let _ = write_column; // byte-tag variant kept private for tests
}

/// Largest column or challenge count a deserialized constraint system may
/// declare; the verifier loops over these counts before reading any proof
/// byte, so they are bounded here.
const MAX_COLUMNS: usize = 1 << 16;

/// Whether every column and challenge `e` queries exists in `cs`.
fn expr_in_range(e: &Expression, cs: &ConstraintSystem) -> bool {
    match e {
        Expression::Constant(_) => true,
        Expression::Instance(i, _) => *i < cs.num_instance,
        Expression::Advice(i, _) => *i < cs.num_advice,
        Expression::Fixed(i, _) => *i < cs.num_fixed,
        Expression::Challenge(i) => *i < cs.num_challenges,
        Expression::Neg(a) | Expression::Scaled(a, _) => expr_in_range(a, cs),
        Expression::Sum(a, b) | Expression::Product(a, b) => {
            expr_in_range(a, cs) && expr_in_range(b, cs)
        }
    }
}

/// Rejects a deserialized constraint system the prover or verifier would
/// index out of bounds on: the bytes are untrusted, and everything past
/// this point indexes columns, phases and challenges without checking.
fn validate_cs(cs: &ConstraintSystem) -> Result<(), ReadError> {
    let counts = [
        cs.num_instance,
        cs.num_advice,
        cs.num_fixed,
        cs.num_committed,
        cs.num_challenges,
    ];
    if counts.iter().any(|&n| n > MAX_COLUMNS) {
        return Err(ReadError("too many columns or challenges"));
    }
    // Phase-1 columns are committed only after the phase challenges, which
    // exist only when the system declares some.
    let max_phase = if cs.num_challenges > 0 { 1 } else { 0 };
    if cs.advice_phase.iter().any(|&p| p > max_phase) {
        return Err(ReadError("advice phase out of range"));
    }
    let exprs = cs.gates.iter().flat_map(|g| g.polys.iter()).chain(
        cs.lookups
            .iter()
            .flat_map(|l| l.inputs.iter().chain(l.table.iter())),
    );
    for e in exprs {
        if !expr_in_range(e, cs) {
            return Err(ReadError("expression queries a missing column"));
        }
    }
    let column_exists = |c: &Column| match *c {
        Column::Instance(i) => i < cs.num_instance,
        Column::Advice(i) => i < cs.num_advice,
        Column::Fixed(i) => i < cs.num_fixed,
        Column::Committed(i) => i < cs.num_committed,
    };
    if !cs.permutation_columns.iter().all(column_exists) {
        return Err(ReadError("permutation over a missing column"));
    }
    Ok(())
}

/// Deserializes a constraint system, validated against out-of-range
/// column, phase and challenge references.
pub fn read_cs(r: &mut Reader) -> Result<ConstraintSystem, ReadError> {
    let mut cs = ConstraintSystem::new();
    cs.num_instance = r.u64()? as usize;
    cs.num_advice = r.u64()? as usize;
    cs.num_fixed = r.u64()? as usize;
    cs.num_committed = r.u64()? as usize;
    cs.num_challenges = r.u64()? as usize;
    let np = r.u64()? as usize;
    if np != cs.num_advice {
        return Err(ReadError("phase vector length mismatch"));
    }
    cs.advice_phase = (0..np)
        .map(|_| u8::try_from(r.u64()?).map_err(|_| ReadError("advice phase out of range")))
        .collect::<Result<_, _>>()?;
    let ngates = r.u64()? as usize;
    if ngates > 1 << 16 {
        return Err(ReadError("too many gates"));
    }
    for _ in 0..ngates {
        let nl = r.u64()? as usize;
        if nl > 1 << 12 {
            return Err(ReadError("gate name too long"));
        }
        let name = String::from_utf8(r_take(r, nl)?.to_vec())
            .map_err(|_| ReadError("gate name not utf8"))?;
        let polys = read_exprs(r)?;
        cs.gates.push(Gate { name, polys });
    }
    let nlk = r.u64()? as usize;
    if nlk > 1 << 16 {
        return Err(ReadError("too many lookups"));
    }
    for _ in 0..nlk {
        let nl = r.u64()? as usize;
        if nl > 1 << 12 {
            return Err(ReadError("lookup name too long"));
        }
        let name = String::from_utf8(r_take(r, nl)?.to_vec())
            .map_err(|_| ReadError("lookup name not utf8"))?;
        let inputs = read_exprs(r)?;
        let table = read_exprs(r)?;
        cs.lookups.push(Lookup {
            name,
            inputs,
            table,
        });
    }
    let npm = r.u64()? as usize;
    if npm > 1 << 16 {
        return Err(ReadError("too many permutation columns"));
    }
    for _ in 0..npm {
        let c = read_column(r)?;
        cs.permutation_columns.push(c);
    }
    validate_cs(&cs)?;
    Ok(cs)
}

fn r_take<'a>(r: &mut Reader<'a>, n: usize) -> Result<&'a [u8], ReadError> {
    // Reader has no public take; emulate via remaining + reconstruct.
    // To keep the Reader API minimal we read byte-by-byte through u32 is
    // wasteful; instead extend Reader in zkml-pcs would be cleaner — this
    // helper requires it, so zkml-pcs exposes `take`.
    r.take_bytes(n)
}

impl VerifyingKey {
    /// Serializes the verifying key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.k);
        write_cs(&mut w, &self.cs);
        w.u64(self.fixed_commitments.len() as u64);
        for c in &self.fixed_commitments {
            w.g1(c);
        }
        w.u64(self.sigma_commitments.len() as u64);
        for c in &self.sigma_commitments {
            w.g1(c);
        }
        w.bytes(&self.digest);
        w.finish()
    }

    /// Deserializes a verifying key. The bytes are untrusted: `k` must give
    /// a domain the field supports with room for the blinding rows, and the
    /// commitment vectors must have the lengths the verifier indexes by.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReadError> {
        let mut r = Reader::new(bytes);
        let k = r.u32()?;
        if k > Fr::TWO_ADICITY || (1usize << k) <= BLINDING_FACTORS + 1 {
            return Err(ReadError("circuit size exponent out of range"));
        }
        let cs = read_cs(&mut r)?;
        let nf = r.u64()? as usize;
        if nf > 1 << 20 {
            return Err(ReadError("too many fixed commitments"));
        }
        let fixed_commitments: Vec<_> = (0..nf).map(|_| r.g1()).collect::<Result<_, _>>()?;
        let ns = r.u64()? as usize;
        if ns > 1 << 20 {
            return Err(ReadError("too many sigma commitments"));
        }
        let sigma_commitments: Vec<_> = (0..ns).map(|_| r.g1()).collect::<Result<_, _>>()?;
        if fixed_commitments.len() != cs.num_fixed
            || sigma_commitments.len() != cs.permutation_columns.len()
        {
            return Err(ReadError("commitment count does not match the circuit"));
        }
        let digest: [u8; 64] = r
            .take_bytes(64)?
            .try_into()
            .map_err(|_| ReadError("bad digest"))?;
        if !r.is_exhausted() {
            return Err(ReadError("trailing bytes in verifying key"));
        }
        Ok(VerifyingKey {
            k,
            cs,
            fixed_commitments,
            sigma_commitments,
            digest,
        })
    }
}

fn write_scalar_columns(w: &mut Writer, cols: &[Vec<zkml_ff::Fr>]) {
    w.u64(cols.len() as u64);
    for col in cols {
        w.u64(col.len() as u64);
        for s in col {
            w.scalar(s);
        }
    }
}

fn read_scalar_columns(r: &mut Reader) -> Result<Vec<Vec<zkml_ff::Fr>>, ReadError> {
    let ncols = r.u64()? as usize;
    if ncols > 1 << 20 {
        return Err(ReadError("too many columns"));
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let rows = r.u64()? as usize;
        if rows > 1 << 28 {
            return Err(ReadError("column too long"));
        }
        cols.push((0..rows).map(|_| r.scalar()).collect::<Result<_, _>>()?);
    }
    Ok(cols)
}

impl ProvingKey {
    /// Serializes the proving key: the verifying key plus the fixed and
    /// sigma column values. Derived data (coefficient forms, coset
    /// extensions, Lagrange selectors) is recomputed on load by
    /// `ProvingKey::from_parts`, trading a few FFTs at read time for an
    /// encoding linear in the preprocessed columns.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let vk_bytes = self.vk.to_bytes();
        w.u64(vk_bytes.len() as u64);
        w.bytes(&vk_bytes);
        write_scalar_columns(&mut w, &self.fixed_values);
        write_scalar_columns(&mut w, &self.sigma_values);
        w.finish()
    }

    /// Deserializes a proving key written by [`ProvingKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PlonkError> {
        let mut r = Reader::new(bytes);
        let vk_len = r.u64()? as usize;
        let vk = VerifyingKey::from_bytes(r.take_bytes(vk_len)?)?;
        let fixed_values = read_scalar_columns(&mut r)?;
        let sigma_values = read_scalar_columns(&mut r)?;
        if !r.is_exhausted() {
            return Err(ReadError("trailing bytes in proving key").into());
        }
        ProvingKey::from_parts(vk, fixed_values, sigma_values)
    }
}

impl WeightCommitment {
    /// Serializes a published weight commitment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.k);
        w.u64(self.commitments.len() as u64);
        for c in &self.commitments {
            w.g1(c);
        }
        w.bytes(&self.digest);
        w.finish()
    }

    /// Deserializes a weight commitment, recomputing and checking its
    /// digest so a corrupted file cannot masquerade as a published model.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReadError> {
        let mut r = Reader::new(bytes);
        let k = r.u32()?;
        let nc = r.u64()? as usize;
        if nc > 1 << 20 {
            return Err(ReadError("too many weight commitments"));
        }
        let commitments: Vec<_> = (0..nc).map(|_| r.g1()).collect::<Result<_, _>>()?;
        let digest: [u8; 32] = r
            .take_bytes(32)?
            .try_into()
            .map_err(|_| ReadError("bad weight digest"))?;
        if !r.is_exhausted() {
            return Err(ReadError("trailing bytes in weight commitment"));
        }
        if digest != WeightCommitment::compute_digest(k, &commitments) {
            return Err(ReadError("weight commitment digest mismatch"));
        }
        Ok(WeightCommitment {
            k,
            commitments,
            digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::{Fr, PrimeField};

    fn sample_cs() -> ConstraintSystem {
        let mut cs = ConstraintSystem::new();
        let q = cs.fixed_column();
        let a = cs.advice_column(0);
        let b = cs.advice_column(1);
        cs.challenge();
        cs.enable_equality(Column::Advice(a));
        cs.create_gate(
            "g",
            vec![
                Expression::Fixed(q, Rotation::cur())
                    * (Expression::Advice(a, Rotation::prev())
                        * Expression::Advice(b, Rotation::next())
                        - Expression::Challenge(0)
                        - Expression::Constant(Fr::from_u64(7)))
                    * Fr::from_u64(3),
            ],
        );
        let t = cs.fixed_column();
        cs.create_lookup(
            "lk",
            vec![-Expression::Advice(a, Rotation::cur())],
            vec![Expression::Fixed(t, Rotation::cur())],
        );
        cs
    }

    #[test]
    fn cs_roundtrip() {
        let cs = sample_cs();
        let mut w = Writer::new();
        write_cs(&mut w, &cs);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let back = read_cs(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.num_advice, cs.num_advice);
        assert_eq!(back.advice_phase, cs.advice_phase);
        assert_eq!(back.gates.len(), cs.gates.len());
        assert_eq!(back.gates[0].polys, cs.gates[0].polys);
        assert_eq!(back.lookups[0].inputs, cs.lookups[0].inputs);
        assert_eq!(back.permutation_columns, cs.permutation_columns);
        // Degree (and hence quotient structure) is preserved.
        assert_eq!(back.degree(), cs.degree());
    }

    #[test]
    fn truncated_cs_rejected() {
        let cs = sample_cs();
        let mut w = Writer::new();
        write_cs(&mut w, &cs);
        let bytes = w.finish();
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_cs(&mut r).is_err(), "accepted truncation at {cut}");
        }
    }

    #[test]
    fn negative_rotation_roundtrips() {
        let e = Expression::Advice(3, Rotation(-2));
        let mut w = Writer::new();
        write_expr(&mut w, &e);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_expr(&mut r, 0).unwrap(), e);
    }
}
