//! Fiat–Shamir transcript for the ZKML proving stack.
//!
//! The transcript is a running BLAKE2b chain: every absorbed message hashes
//! the previous 64-byte state together with a length-prefixed label and the
//! message bytes; squeezing a challenge ratchets the state and reduces the
//! full 512-bit output uniformly into the scalar field.

mod blake2b;

pub use blake2b::Blake2b;
use zkml_ff::PrimeField;

/// A Fiat–Shamir transcript.
///
/// Prover and verifier build identical transcripts from the public protocol
/// messages, so the challenges they derive agree.
#[derive(Clone)]
pub struct Transcript {
    state: [u8; 64],
}

impl Transcript {
    /// Creates a transcript seeded with a domain-separation label.
    pub fn new(domain: &[u8]) -> Self {
        let mut h = Blake2b::new();
        h.update(b"zkml-transcript-v1");
        h.update(&(domain.len() as u64).to_le_bytes());
        h.update(domain);
        Self {
            state: h.finalize(),
        }
    }

    /// Absorbs labelled bytes into the transcript.
    pub fn absorb(&mut self, label: &'static [u8], data: &[u8]) {
        let mut h = Blake2b::new();
        h.update(&self.state);
        h.update(&[0x01]);
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&(data.len() as u64).to_le_bytes());
        h.update(data);
        self.state = h.finalize();
    }

    /// Absorbs a field element (canonical 32-byte encoding).
    pub fn absorb_scalar<F: PrimeField>(&mut self, label: &'static [u8], v: &F) {
        self.absorb(label, &v.to_bytes());
    }

    /// Squeezes a uniformly distributed field element challenge.
    pub fn challenge<F: PrimeField>(&mut self, label: &'static [u8]) -> F {
        let mut h = Blake2b::new();
        h.update(&self.state);
        h.update(&[0x02]);
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        self.state = h.finalize();
        let mut lo = [0u64; 4];
        let mut hi = [0u64; 4];
        for i in 0..4 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.state[i * 8..(i + 1) * 8]);
            lo[i] = u64::from_le_bytes(b);
            b.copy_from_slice(&self.state[32 + i * 8..32 + (i + 1) * 8]);
            hi[i] = u64::from_le_bytes(b);
        }
        F::from_u512(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::{Field, Fr};

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut t1 = Transcript::new(b"test");
        let mut t2 = Transcript::new(b"test");
        t1.absorb(b"a", &[1, 2, 3]);
        t2.absorb(b"a", &[1, 2, 3]);
        let c1: Fr = t1.challenge(b"c");
        let c2: Fr = t2.challenge(b"c");
        assert_eq!(c1, c2);

        let mut t3 = Transcript::new(b"test");
        t3.absorb(b"a", &[3, 2, 1]);
        let c3: Fr = t3.challenge(b"c");
        assert_ne!(c1, c3);
    }

    #[test]
    fn domain_separation() {
        let mut t1 = Transcript::new(b"proto-a");
        let mut t2 = Transcript::new(b"proto-b");
        let c1: Fr = t1.challenge(b"c");
        let c2: Fr = t2.challenge(b"c");
        assert_ne!(c1, c2);
    }

    #[test]
    fn successive_challenges_differ() {
        let mut t = Transcript::new(b"test");
        let c1: Fr = t.challenge(b"c");
        let c2: Fr = t.challenge(b"c");
        assert_ne!(c1, c2);
        assert!(!c1.is_zero());
    }

    #[test]
    fn reordered_absorptions_change_every_challenge() {
        // Same absorptions in the same order reproduce the same challenge
        // stream; ANY reordering must change it (Fiat-Shamir soundness).
        let run = |order: &[(&'static [u8], &'static [u8])]| -> Vec<Fr> {
            let mut t = Transcript::new(b"test");
            for (label, data) in order {
                t.absorb(label, data);
            }
            (0..3).map(|_| t.challenge(b"c")).collect()
        };
        let a: (&'static [u8], &'static [u8]) = (b"a", b"first");
        let b: (&'static [u8], &'static [u8]) = (b"b", b"second");
        let c: (&'static [u8], &'static [u8]) = (b"c", b"third");
        let base = run(&[a, b, c]);
        assert_eq!(base, run(&[a, b, c]), "same absorptions, same challenges");
        for reordered in [[a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]] {
            let other = run(&reordered);
            assert_ne!(base, other, "reordering went unnoticed: {reordered:?}");
            // Not just the stream as a whole: every challenge must differ.
            for (x, y) in base.iter().zip(&other) {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn length_prefixing_prevents_concatenation_ambiguity() {
        // ("ab", "c") must differ from ("a", "bc").
        let mut t1 = Transcript::new(b"test");
        t1.absorb(b"x", b"ab");
        t1.absorb(b"x", b"c");
        let mut t2 = Transcript::new(b"test");
        t2.absorb(b"x", b"a");
        t2.absorb(b"x", b"bc");
        let c1: Fr = t1.challenge(b"c");
        let c2: Fr = t2.challenge(b"c");
        assert_ne!(c1, c2);
    }
}
