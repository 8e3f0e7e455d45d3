//! The segmented-proof artifact: per-segment proofs plus the metadata the
//! bundle verifier needs, with a binary encoding and the chain digest that
//! binds segments to their bundle and position.

use crate::ShardError;
use zkml_ff::Fr;
use zkml_pcs::{Backend, Reader, Writer};

/// Upper bound on segments per bundle (decoder hardening; far above any
/// real cut plan).
const MAX_SEGMENTS: usize = 1 << 10;

/// One segment's share of a [`SegmentedProof`].
#[derive(Clone, Debug)]
pub struct SegmentProof {
    /// log2 of the segment circuit's row count.
    pub k: u32,
    /// The segment's serialized verifying key
    /// ([`zkml_plonk::VerifyingKey::to_bytes`]).
    pub vk_bytes: Vec<u8>,
    /// Length of the boundary-in prefix of `instance` (0 for the first
    /// segment). The remainder is the segment's boundary-out values, or
    /// the model outputs for the last segment.
    pub boundary_in_len: u32,
    /// The segment's single public-instance column.
    pub instance: Vec<Fr>,
    /// The segment's serialized [`zkml_plonk::WeightCommitment`] when its
    /// circuit carries committed weight columns; empty otherwise. Covered
    /// by the chain digest, so splicing a segment proved under different
    /// weights into the bundle breaks every segment's binding.
    pub weight_commitment: Vec<u8>,
    /// The plonk proof, created bound to this bundle's chain digest and
    /// this segment's position (see [`segment_binding`]).
    pub proof: Vec<u8>,
}

/// A model proved as a chain of segment proofs.
///
/// The bundle is the unit of verification: [`crate::verify_bundle`] checks
/// the boundary instances chain, re-derives every segment's transcript
/// binding from the bundle itself, and settles all KZG openings with one
/// multi-pairing.
#[derive(Clone, Debug)]
pub struct SegmentedProof {
    /// `Graph::content_hash()` of the proved model.
    pub model_hash: [u8; 32],
    /// Commitment backend every segment was proved under.
    pub backend: Backend,
    /// The segments, in chain order.
    pub segments: Vec<SegmentProof>,
}

fn backend_tag(b: Backend) -> u32 {
    match b {
        Backend::Kzg => 0,
        Backend::Ipa => 1,
    }
}

fn backend_from_tag(t: u32) -> Result<Backend, ShardError> {
    match t {
        0 => Ok(Backend::Kzg),
        1 => Ok(Backend::Ipa),
        _ => Err(ShardError::Malformed(format!("unknown backend tag {t}"))),
    }
}

impl SegmentedProof {
    /// Digest binding the whole chain: model hash, backend, segment count,
    /// and every segment's `(k, verifying key, boundary split, instance,
    /// weight commitment)`.
    ///
    /// Proof bytes are deliberately excluded — the digest is an *input* to
    /// proving (each segment proof is transcript-bound to it), so it can
    /// only cover what exists before any proof does. Everything that
    /// determines what the segments claim is covered, so tampering with any
    /// segment's public data changes every segment's expected binding.
    pub(crate) fn chain_digest(&self) -> [u8; 32] {
        let mut w = Writer::new();
        w.bytes(&self.model_hash);
        w.u32(backend_tag(self.backend));
        w.u32(self.segments.len() as u32);
        for s in &self.segments {
            w.u32(s.k);
            w.u64(s.vk_bytes.len() as u64);
            w.bytes(&s.vk_bytes);
            w.u32(s.boundary_in_len);
            w.u64(s.instance.len() as u64);
            for v in &s.instance {
                w.scalar(v);
            }
            w.u64(s.weight_commitment.len() as u64);
            w.bytes(&s.weight_commitment);
        }
        let mut h = zkml_transcript::Blake2b::new();
        h.update(b"zkml-segment-chain-v2");
        h.update(&w.finish());
        let digest = h.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&digest[..32]);
        out
    }

    /// Serializes the bundle.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(u32::from_be_bytes(*b"ZKSB"));
        w.u32(2); // format version (2: per-segment weight commitments)
        w.bytes(&self.model_hash);
        w.u32(backend_tag(self.backend));
        w.u32(self.segments.len() as u32);
        for s in &self.segments {
            w.u32(s.k);
            w.u64(s.vk_bytes.len() as u64);
            w.bytes(&s.vk_bytes);
            w.u32(s.boundary_in_len);
            w.u64(s.instance.len() as u64);
            for v in &s.instance {
                w.scalar(v);
            }
            w.u64(s.weight_commitment.len() as u64);
            w.bytes(&s.weight_commitment);
            w.u64(s.proof.len() as u64);
            w.bytes(&s.proof);
        }
        w.finish()
    }

    /// Deserializes a bundle written by [`SegmentedProof::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShardError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != u32::from_be_bytes(*b"ZKSB") {
            return Err(ShardError::Malformed("bad bundle magic".into()));
        }
        let version = r.u32()?;
        if version != 2 {
            return Err(ShardError::Malformed(format!(
                "unsupported bundle version {version} (expected 2; version 1 \
                 bundles predate weight commitments and must be re-proved)"
            )));
        }
        let model_hash: [u8; 32] = r
            .take_bytes(32)?
            .try_into()
            .map_err(|_| ShardError::Malformed("bad model hash".into()))?;
        let backend = backend_from_tag(r.u32()?)?;
        let nsegs = r.u32()? as usize;
        if nsegs == 0 || nsegs > MAX_SEGMENTS {
            return Err(ShardError::Malformed(format!(
                "segment count {nsegs} out of range"
            )));
        }
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let k = r.u32()?;
            let vk_len = r.u64()? as usize;
            if vk_len > 1 << 28 {
                return Err(ShardError::Malformed("verifying key too long".into()));
            }
            let vk_bytes = r.take_bytes(vk_len)?.to_vec();
            let boundary_in_len = r.u32()?;
            let n_inst = r.u64()? as usize;
            if n_inst > 1 << 28 {
                return Err(ShardError::Malformed("instance column too long".into()));
            }
            let instance = (0..n_inst)
                .map(|_| r.scalar())
                .collect::<Result<Vec<Fr>, _>>()?;
            if (boundary_in_len as usize) > instance.len() {
                return Err(ShardError::Malformed(
                    "boundary prefix longer than instance column".into(),
                ));
            }
            let wc_len = r.u64()? as usize;
            if wc_len > 1 << 28 {
                return Err(ShardError::Malformed("weight commitment too long".into()));
            }
            let weight_commitment = r.take_bytes(wc_len)?.to_vec();
            let proof_len = r.u64()? as usize;
            if proof_len > 1 << 28 {
                return Err(ShardError::Malformed("proof too long".into()));
            }
            let proof = r.take_bytes(proof_len)?.to_vec();
            segments.push(SegmentProof {
                k,
                vk_bytes,
                boundary_in_len,
                instance,
                weight_commitment,
                proof,
            });
        }
        if !r.is_exhausted() {
            return Err(ShardError::Malformed("trailing bytes in bundle".into()));
        }
        Ok(SegmentedProof {
            model_hash,
            backend,
            segments,
        })
    }

    /// The public outputs the bundle claims for the model: the last
    /// segment's instance column past its boundary-in prefix.
    pub fn public_outputs(&self) -> &[Fr] {
        let last = self.segments.last().expect("bundle has >= 1 segment");
        &last.instance[last.boundary_in_len as usize..]
    }
}

/// The transcript-binding context for segment `index` of `nsegs` in the
/// bundle with the given chain digest.
///
/// Passed as the `binding` of [`zkml_plonk::create_proof_committed`] /
/// [`zkml_plonk::verify_proof_committed`], it commits the proof to its exact
/// position in this exact chain: swapping two segments, splicing a segment
/// from another bundle, or altering any segment's public data all change
/// the expected binding and make the Fiat–Shamir challenges diverge.
pub(crate) fn segment_binding(chain: &[u8; 32], index: usize, nsegs: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 32 + 8);
    out.extend_from_slice(b"zkml-segment-bind-v1");
    out.extend_from_slice(chain);
    out.extend_from_slice(&(index as u32).to_le_bytes());
    out.extend_from_slice(&(nsegs as u32).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::PrimeField;

    fn sample_bundle() -> SegmentedProof {
        SegmentedProof {
            model_hash: [7u8; 32],
            backend: Backend::Kzg,
            segments: vec![
                SegmentProof {
                    k: 5,
                    vk_bytes: vec![1, 2, 3],
                    boundary_in_len: 0,
                    instance: vec![Fr::from_u64(10), Fr::from_u64(20)],
                    weight_commitment: vec![0xAA, 0xBB],
                    proof: vec![9, 9],
                },
                SegmentProof {
                    k: 6,
                    vk_bytes: vec![4, 5],
                    boundary_in_len: 2,
                    instance: vec![Fr::from_u64(10), Fr::from_u64(20), Fr::from_u64(30)],
                    weight_commitment: Vec::new(),
                    proof: vec![8],
                },
            ],
        }
    }

    #[test]
    fn bundle_roundtrips() {
        let b = sample_bundle();
        let bytes = b.to_bytes();
        let back = SegmentedProof::from_bytes(&bytes).unwrap();
        assert_eq!(back.model_hash, b.model_hash);
        assert_eq!(back.backend, b.backend);
        assert_eq!(back.segments.len(), 2);
        assert_eq!(back.segments[1].instance, b.segments[1].instance);
        assert_eq!(back.segments[1].boundary_in_len, 2);
        assert_eq!(back.chain_digest(), b.chain_digest());
        assert_eq!(back.public_outputs(), &[Fr::from_u64(30)]);
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let bytes = sample_bundle().to_bytes();
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SegmentedProof::from_bytes(&bytes[..cut]).is_err(),
                "accepted truncation at {cut}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(SegmentedProof::from_bytes(&extra).is_err());
    }

    #[test]
    fn chain_digest_covers_public_data_not_proofs() {
        let b = sample_bundle();
        let base = b.chain_digest();

        // Proof bytes are excluded (the digest is a proving input).
        let mut p = b.clone();
        p.segments[0].proof = vec![0xFF];
        assert_eq!(p.chain_digest(), base);

        // Everything public changes the digest.
        let mut m = b.clone();
        m.model_hash[0] ^= 1;
        assert_ne!(m.chain_digest(), base);
        let mut i = b.clone();
        i.segments[1].instance[0] += Fr::from_u64(1);
        assert_ne!(i.chain_digest(), base);
        let mut v = b.clone();
        v.segments[0].vk_bytes.push(0);
        assert_ne!(v.chain_digest(), base);
        let mut s = b.clone();
        s.segments.swap(0, 1);
        assert_ne!(s.chain_digest(), base);
        // A different (or missing) weight commitment is a different chain:
        // splicing a foreign segment's weights can't preserve bindings.
        let mut wc = b.clone();
        wc.segments[0].weight_commitment[0] ^= 1;
        assert_ne!(wc.chain_digest(), base);
        let mut wd = b.clone();
        wd.segments[0].weight_commitment.clear();
        assert_ne!(wd.chain_digest(), base);
    }

    #[test]
    fn weight_commitment_roundtrips() {
        let b = sample_bundle();
        let back = SegmentedProof::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back.segments[0].weight_commitment, vec![0xAA, 0xBB]);
        assert!(back.segments[1].weight_commitment.is_empty());
    }

    #[test]
    fn version_1_bundles_rejected() {
        // A pre-weight-commitment bundle: same layout minus the
        // weight-commitment field, tagged version 1.
        let b = sample_bundle();
        let mut w = Writer::new();
        w.u32(u32::from_be_bytes(*b"ZKSB"));
        w.u32(1);
        w.bytes(&b.model_hash);
        w.u32(0);
        w.u32(b.segments.len() as u32);
        for s in &b.segments {
            w.u32(s.k);
            w.u64(s.vk_bytes.len() as u64);
            w.bytes(&s.vk_bytes);
            w.u32(s.boundary_in_len);
            w.u64(s.instance.len() as u64);
            for v in &s.instance {
                w.scalar(v);
            }
            w.u64(s.proof.len() as u64);
            w.bytes(&s.proof);
        }
        let err = SegmentedProof::from_bytes(&w.finish()).unwrap_err();
        assert!(
            err.to_string().contains("version 1"),
            "old-format bundle must be rejected by version, got: {err}"
        );
    }

    #[test]
    fn bindings_differ_per_position_and_chain() {
        let chain_a = [1u8; 32];
        let chain_b = [2u8; 32];
        assert_ne!(
            segment_binding(&chain_a, 0, 2),
            segment_binding(&chain_a, 1, 2)
        );
        assert_ne!(
            segment_binding(&chain_a, 0, 2),
            segment_binding(&chain_a, 0, 3)
        );
        assert_ne!(
            segment_binding(&chain_a, 0, 2),
            segment_binding(&chain_b, 0, 2)
        );
    }
}
