//! The `public.bin` codec shared by the gateway (which ships it hex-encoded
//! in job status) and the CLI's prove/verify flows.
//!
//! A proof directory (written by the CLI) holds `proof.bin`, `vk.bin`, and
//! `public.bin`; the public-values file carries the backend tag followed by
//! the first instance column. Proofs of committed-weight circuits
//! additionally get `commitment.bin` (the serialized `WeightCommitment` the
//! proof verifies against — a committed proof is unverifiable without one).

use zkml_ff::Fr;
use zkml_pcs::{Backend, ReadError, Reader, Writer};

/// Encodes the `public.bin` payload: backend tag, then the public values.
pub fn encode_public(backend: Backend, values: &[Fr]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(match backend {
        Backend::Kzg => 0,
        Backend::Ipa => 1,
    });
    w.u64(values.len() as u64);
    for v in values {
        w.scalar(v);
    }
    w.finish()
}

/// Decodes a `public.bin` payload.
pub fn decode_public(bytes: &[u8]) -> Result<(Backend, Vec<Fr>), ReadError> {
    let mut r = Reader::new(bytes);
    let backend = match r.u32()? {
        0 => Backend::Kzg,
        1 => Backend::Ipa,
        _ => return Err(ReadError("bad backend tag")),
    };
    let n = r.u64()? as usize;
    if n > 1 << 24 {
        return Err(ReadError("too many public values"));
    }
    let values = (0..n).map(|_| r.scalar()).collect::<Result<_, _>>()?;
    if !r.is_exhausted() {
        return Err(ReadError("trailing bytes in public values"));
    }
    Ok((backend, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::PrimeField;

    #[test]
    fn public_roundtrip() {
        let values: Vec<Fr> = (0..5).map(Fr::from_u64).collect();
        for backend in [Backend::Kzg, Backend::Ipa] {
            let bytes = encode_public(backend, &values);
            let (b, v) = decode_public(&bytes).unwrap();
            assert_eq!(b, backend);
            assert_eq!(v, values);
        }
    }

    #[test]
    fn corrupt_public_rejected() {
        let bytes = encode_public(Backend::Kzg, &[Fr::from_u64(3)]);
        assert!(decode_public(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_public(&trailing).is_err());
        let mut bad_tag = bytes;
        bad_tag[0] = 9;
        assert!(decode_public(&bad_tag).is_err());
    }
}
