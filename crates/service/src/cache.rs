//! The artifact cache: per-model proving/verifying keys and per-size SRS,
//! shared across workers behind `parking_lot::RwLock`s, with optional disk
//! spill so a restarted service skips key generation entirely.
//!
//! Keys are cached under `(architecture hash, backend, circuit digest)` —
//! the exact inputs key generation depends on. With weights living in
//! committed columns, keygen never reads a weight value, so the namespace
//! is `Graph::arch_hash()` (structure only): every weight set of one
//! architecture shares a single cached proving key. The circuit digest
//! ([`zkml::CompiledCircuit::circuit_digest`]) covers the optimizer's full
//! layout choice and the serialized constraint system; the optimizer picks
//! layouts from machine- and run-dependent timing measurements, so two runs
//! can compile the same model to different circuits with the same `k`, and
//! a key cached for one must never be applied to the other. As a second
//! line of defense against stale or foreign spill files, a key loaded from
//! disk is validated against the freshly compiled circuit before it enters
//! the in-memory map. The SRS is a public artifact this reproduction
//! regenerates from a fixed seed (see DESIGN.md on the trusted-setup
//! substitution), so it is memoized per `(backend, k)` rather than
//! persisted.
//!
//! Beside the keys sit the two per-process memos that make a warm job cost
//! only its witness: the **layout** an architecture's sweep picked
//! ([`PlanKey`] → [`SegmentLayout`]) and the set of circuits the static
//! analyzer has **cleared** (`(content hash, circuit digest)`). Both are
//! functions of the model and the layout alone — no request input reaches
//! them — and neither is persisted: a restarted service sweeps and analyzes
//! once again before it touches a key, spilled or not.

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zkml::{CompiledCircuit, NumericConfig, ZkmlError};
use zkml_pcs::{Backend, Params, Writer};
use zkml_plonk::{write_cs, ProvingKey};
use zkml_shard::{SegmentLayout, SegmentSpec, DEFAULT_SRS_SEED};

/// Identity of a cached proving key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// `Graph::arch_hash()` of the model — the structure-only hash, so
    /// models differing only in trained weights share this namespace (and
    /// hence, when they compile to the same circuit, the proving key).
    pub arch_hash: [u8; 32],
    /// Commitment backend the key was generated for.
    pub backend: Backend,
    /// log2 of the circuit's row count.
    pub k: u32,
    /// `CompiledCircuit::circuit_digest()` — pins the layout choice and
    /// constraint system the key was generated for, which `k` alone does
    /// not (the optimizer's choice is timing-dependent).
    pub circuit: [u8; 32],
}

/// Identity of a memoized layout decision: everything the sweep's outcome
/// depends on within one process. `HardwareStats::cached()` is constant per
/// process, so the cost table needs no field here; the request's inputs do
/// not reach placement at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// `Graph::arch_hash()`: layouts ignore weight values.
    pub arch_hash: [u8; 32],
    /// Commitment backend the cost model priced.
    pub backend: Backend,
    /// Largest `k` the sweep was allowed.
    pub max_k: u32,
    /// Fixed-point configuration the schedule was lowered under.
    pub numeric: NumericConfig,
    /// How the model is cut; `None` for a monolithic job.
    pub segments: Option<SegmentSpec>,
}

/// Lowercase hex (spill file names, error messages).
pub(crate) fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

impl ArtifactKey {
    /// The key identifying `compiled` (a compilation of the model whose
    /// architecture hashes to `arch_hash`) for `backend`.
    pub fn for_circuit(arch_hash: [u8; 32], backend: Backend, compiled: &CompiledCircuit) -> Self {
        Self {
            arch_hash,
            backend,
            k: compiled.k,
            circuit: compiled.circuit_digest(),
        }
    }

    /// The key identifying the circuit a [`zkml::LayoutPlan`] describes,
    /// before any witness is synthesized. [`zkml::LayoutPlan::digest`] is
    /// byte-identical to the synthesized circuit's digest, so this equals
    /// [`ArtifactKey::for_circuit`] of the eventual compilation — key
    /// lookups (and keygen) can start as soon as the optimizer picks a
    /// plan.
    pub(crate) fn for_plan(arch_hash: [u8; 32], backend: Backend, plan: &zkml::LayoutPlan) -> Self {
        Self {
            arch_hash,
            backend,
            k: plan.k,
            circuit: plan.digest(),
        }
    }

    /// A filesystem-safe stem naming this key's spill file.
    pub fn file_stem(&self) -> String {
        let backend = match self.backend {
            Backend::Kzg => "kzg",
            Backend::Ipa => "ipa",
        };
        format!(
            "{}-{backend}-k{}-{}",
            hex(&self.arch_hash),
            self.k,
            hex(&self.circuit)
        )
    }
}

/// Whether a (possibly disk-loaded) proving key actually belongs to the
/// freshly compiled circuit: same row count and identical serialized
/// constraint system. Guards against stale spill files or cache
/// directories shared across incompatible builds.
pub fn pk_matches_circuit(pk: &ProvingKey, compiled: &CompiledCircuit) -> bool {
    if pk.vk.k != compiled.k {
        return false;
    }
    let mut a = Writer::new();
    write_cs(&mut a, &pk.vk.cs);
    let mut b = Writer::new();
    write_cs(&mut b, &compiled.cs);
    a.finish() == b.finish()
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Found in memory.
    MemoryHit,
    /// Loaded from the disk spill directory (keygen still skipped).
    DiskHit,
    /// Not cached anywhere; the key was generated.
    Miss,
}

impl CacheOutcome {
    /// Whether key generation was skipped.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheOutcome::Miss)
    }
}

/// Shared cache of proving keys and SRS instances.
pub struct ArtifactCache {
    keys: RwLock<HashMap<ArtifactKey, Arc<ProvingKey>>>,
    params: RwLock<HashMap<(Backend, u32), Arc<Params>>>,
    layouts: RwLock<HashMap<PlanKey, Arc<SegmentLayout>>>,
    /// `(Graph::content_hash(), circuit digest)` of every circuit that
    /// passed `ensure_determined` in this process.
    determined: RwLock<HashSet<([u8; 32], [u8; 32])>>,
    disk_dir: Option<PathBuf>,
}

impl ArtifactCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        Self {
            keys: RwLock::new(HashMap::new()),
            params: RwLock::new(HashMap::new()),
            layouts: RwLock::new(HashMap::new()),
            determined: RwLock::new(HashSet::new()),
            disk_dir: None,
        }
    }

    /// A cache that additionally spills proving keys to `dir`, so a future
    /// service instance pointed at the same directory starts warm.
    pub fn with_disk(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            disk_dir: Some(dir.to_path_buf()),
            ..Self::in_memory()
        })
    }

    /// Returns the SRS for `(backend, k)`, generating it on first use.
    ///
    /// Generation happens outside the lock so concurrent workers are never
    /// serialized behind a multi-second setup; if two race, one result wins
    /// and the other is dropped (both are identical — the seed is fixed).
    pub fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        if let Some(p) = self.params.read().get(&(backend, k)) {
            return Arc::clone(p);
        }
        let mut rng = StdRng::seed_from_u64(DEFAULT_SRS_SEED);
        let fresh = Arc::new(Params::setup(backend, k, &mut rng));
        let mut map = self.params.write();
        Arc::clone(map.entry((backend, k)).or_insert(fresh))
    }

    /// The layout memoized under `key`, running `sweep` and storing its
    /// winner on a miss. Also reports whether it was a hit.
    ///
    /// The sweep runs outside the lock; if two workers race on a cold key
    /// the first stored layout wins and both use it, so every job of one
    /// process — publish, prove, monolithic or segmented — compiles an
    /// architecture to the same circuits.
    pub(crate) fn layout_or_sweep<E>(
        &self,
        key: PlanKey,
        sweep: impl FnOnce() -> Result<SegmentLayout, E>,
    ) -> Result<(Arc<SegmentLayout>, bool), E> {
        if let Some(layout) = self.layouts.read().get(&key) {
            return Ok((Arc::clone(layout), true));
        }
        let fresh = Arc::new(sweep()?);
        let mut map = self.layouts.write();
        Ok((Arc::clone(map.entry(key).or_insert(fresh)), false))
    }

    /// Runs the static determinism check on `compiled` — a compilation of
    /// the model hashing to `content_hash` — unless this process has already
    /// cleared that very circuit, and reports whether the analyzer ran.
    ///
    /// Everything the analyzer reads (constraint system, fixed columns, copy
    /// constraints, committed weight values, cell positions and regions) is
    /// a function of the model's content and the layout, which the key pins;
    /// no advice value reaches it. Failures are never remembered: an
    /// underconstrained circuit fails every job that compiles to it.
    pub fn ensure_determined(
        &self,
        content_hash: [u8; 32],
        compiled: &CompiledCircuit,
    ) -> Result<bool, ZkmlError> {
        let key = (content_hash, compiled.circuit_digest());
        if self.determined.read().contains(&key) {
            return Ok(false);
        }
        compiled.ensure_determined()?;
        self.determined.write().insert(key);
        Ok(true)
    }

    fn spill_path(&self, key: &ArtifactKey) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        Some(dir.join(format!("{}.pk", key.file_stem())))
    }

    /// Inserts a freshly generated key, spilling it to disk when configured.
    /// Returns the cached handle (the existing one if another worker won the
    /// race, so all holders share one allocation).
    pub fn insert(&self, key: ArtifactKey, pk: ProvingKey) -> Arc<ProvingKey> {
        let pk = Arc::new(pk);
        let cached = {
            let mut map = self.keys.write();
            Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&pk)))
        };
        if let Some(path) = self.spill_path(&key) {
            if !path.exists() {
                // Spill via a temp file + rename so concurrent readers never
                // observe a half-written key. Spill failure is non-fatal: the
                // cache simply stays memory-only for this entry.
                let tmp = path.with_extension("pk.tmp");
                if std::fs::write(&tmp, cached.to_bytes()).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
            }
        }
        cached
    }

    /// Looks up the key in memory, then in the disk spill, generating and
    /// caching it on a miss. The returned outcome reports whether keygen was
    /// skipped.
    ///
    /// `valid` runs only on a key loaded from disk, before it enters the
    /// in-memory map: a spill file can come from another build or a shared
    /// directory, and one that does not match the compiled circuit is
    /// deleted and regenerated. A key already in memory was generated or
    /// validated by this process under this very [`ArtifactKey`], which pins
    /// the circuit digest, so it is served as is.
    pub fn get_or_generate<E>(
        &self,
        key: ArtifactKey,
        valid: impl Fn(&ProvingKey) -> bool,
        generate: impl FnOnce() -> Result<ProvingKey, E>,
    ) -> Result<(Arc<ProvingKey>, CacheOutcome), E> {
        if let Some(pk) = self.keys.read().get(&key) {
            return Ok((Arc::clone(pk), CacheOutcome::MemoryHit));
        }
        if let Some(path) = self.spill_path(&key) {
            let spilled = std::fs::read(&path)
                .ok()
                .and_then(|bytes| ProvingKey::from_bytes(&bytes).ok());
            match spilled {
                Some(pk) if valid(&pk) => {
                    let mut map = self.keys.write();
                    let pk = map.entry(key).or_insert_with(|| Arc::new(pk));
                    return Ok((Arc::clone(pk), CacheOutcome::DiskHit));
                }
                // Stale, foreign or unreadable: make room for the fresh key.
                _ => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        let pk = generate()?;
        Ok((self.insert(key, pk), CacheOutcome::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_stem_distinguishes_backend_k_and_circuit() {
        let key = |backend, k, circuit| ArtifactKey {
            arch_hash: [0xAB; 32],
            backend,
            k,
            circuit,
        };
        let a = key(Backend::Kzg, 10, [0x01; 32]).file_stem();
        let b = key(Backend::Ipa, 10, [0x01; 32]).file_stem();
        let c = key(Backend::Kzg, 11, [0x01; 32]).file_stem();
        let d = key(Backend::Kzg, 10, [0x02; 32]).file_stem();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "layouts sharing k must spill to distinct files");
        assert!(a.starts_with("abab"));
        assert!(a.contains("kzg-k10"));
    }

    #[test]
    fn params_memoized_per_backend_and_k() {
        let cache = ArtifactCache::in_memory();
        let p1 = cache.params(Backend::Kzg, 4);
        let p2 = cache.params(Backend::Kzg, 4);
        assert!(Arc::ptr_eq(&p1, &p2));
        let p3 = cache.params(Backend::Ipa, 4);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.backend(), Backend::Ipa);
    }
}
