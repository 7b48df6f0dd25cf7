//! The digest-keyed model registry with atomic hot-swap.
//!
//! Every [`FrozenModel`] is keyed by its content digest (the FNV-1a-64
//! trailer of its byte layout), so "which model served this request" is
//! always answerable from a response's `digest` field and a retrained
//! model is a *new* key — publishing can never silently mutate what an
//! old digest pin resolves to.
//!
//! [`ModelRegistry::publish`] registers and activates in one write-lock
//! critical section: requests batched before the swap serve the old
//! model, requests batched after serve the new one, and no batch ever
//! observes a half-updated registry. Old models stay resolvable (for
//! clients that pinned their digest) until explicitly
//! [retired](ModelRegistry::retire); retiring the *active* model is
//! refused so live traffic is never left without a model.

use crate::error::ServerError;
use dfr_serve::FrozenModel;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// File name of the active-head marker inside a persisted store.
const ACTIVE_FILE: &str = "ACTIVE";
/// Extension of persisted model files (`model-<digest:016x>.dfrm`).
const MODEL_EXT: &str = "dfrm";

struct Inner {
    models: HashMap<u64, Arc<FrozenModel>>,
    active: u64,
}

/// A concurrent, digest-keyed store of frozen models with one *active*
/// model serving unpinned traffic.
pub struct ModelRegistry {
    inner: RwLock<Inner>,
}

impl ModelRegistry {
    /// Creates a registry with `model` registered and active.
    pub fn new(model: FrozenModel) -> Self {
        let model = Arc::new(model);
        let digest = model.content_digest();
        let mut models = HashMap::new();
        models.insert(digest, model);
        ModelRegistry {
            inner: RwLock::new(Inner {
                models,
                active: digest,
            }),
        }
    }

    /// Registers `model` **and** makes it the active model, atomically —
    /// the hot-swap entry point for a freshly retrained model. Returns
    /// its digest.
    pub fn publish(&self, model: FrozenModel) -> u64 {
        let model = Arc::new(model);
        let digest = model.content_digest();
        let mut inner = self.inner.write().unwrap();
        inner.models.entry(digest).or_insert(model);
        inner.active = digest;
        digest
    }

    /// Makes an already-registered model the active one.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownDigest`] if nothing is registered under
    /// `digest`.
    pub fn activate(&self, digest: u64) -> Result<(), ServerError> {
        let mut inner = self.inner.write().unwrap();
        if !inner.models.contains_key(&digest) {
            return Err(ServerError::UnknownDigest { digest });
        }
        inner.active = digest;
        Ok(())
    }

    /// The active model (always present — the registry is constructed
    /// with one and the active model cannot be retired).
    pub fn active(&self) -> Arc<FrozenModel> {
        let inner = self.inner.read().unwrap();
        Arc::clone(
            inner
                .models
                .get(&inner.active)
                .expect("active model is always registered"),
        )
    }

    /// Digest of the active model.
    pub fn active_digest(&self) -> u64 {
        self.inner.read().unwrap().active
    }

    /// Looks up a model by digest.
    pub fn get(&self, digest: u64) -> Option<Arc<FrozenModel>> {
        self.inner.read().unwrap().models.get(&digest).cloned()
    }

    /// Whether a model is registered under `digest`.
    pub fn contains(&self, digest: u64) -> bool {
        self.inner.read().unwrap().models.contains_key(&digest)
    }

    /// Removes a retired model so pinned clients get `UnknownDigest`
    /// instead of stale parameters.
    ///
    /// # Errors
    ///
    /// [`ServerError::RetireActive`] when `digest` is the active model
    /// (activate a replacement first), [`ServerError::UnknownDigest`]
    /// when nothing is registered under it.
    pub fn retire(&self, digest: u64) -> Result<(), ServerError> {
        let mut inner = self.inner.write().unwrap();
        if digest == inner.active {
            return Err(ServerError::RetireActive { digest });
        }
        if inner.models.remove(&digest).is_none() {
            return Err(ServerError::UnknownDigest { digest });
        }
        Ok(())
    }

    /// All registered digests, sorted (deterministic listing).
    pub fn digests(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self.inner.read().unwrap().models.keys().copied().collect();
        d.sort_unstable();
        d
    }

    /// Persists every registered model plus the active head to `dir`
    /// (created if missing), crash-safely: each file is written to a
    /// temporary name, synced, then atomically renamed into place, so a
    /// kill at any instant leaves either the old file or the new file —
    /// never a torn one. Models are written as their versioned,
    /// digest-trailed byte layout (`model-<digest:016x>.dfrm`); the
    /// `ACTIVE` head file names the active digest and is written last,
    /// after every model it could point at is durable.
    ///
    /// Stale files from earlier persists are left in place (they are
    /// valid older models and keep digest-pinned reloads working).
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] naming the file that failed.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> Result<PersistReport, ServerError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| store_err("create store dir", dir, &e))?;
        // Snapshot under the read lock, write outside it: persistence
        // must not stall admission or hot-swaps. The models AND the
        // active head must be captured in this single critical section —
        // reading them under separate lock acquisitions would let a
        // racing `publish` slip between them, and the persisted `ACTIVE`
        // head could then name a digest whose model file was never
        // written (an unloadable store that silently falls back). The
        // racing publish/persist test below pins this invariant.
        let (models, active) = {
            let inner = self.inner.read().unwrap();
            let models: Vec<Arc<FrozenModel>> = inner.models.values().map(Arc::clone).collect();
            (models, inner.active)
        };
        let mut digests: Vec<u64> = Vec::with_capacity(models.len());
        for model in &models {
            let digest = model.content_digest();
            let path = dir.join(format!("model-{digest:016x}.{MODEL_EXT}"));
            write_atomically(&path, &model.to_bytes())?;
            digests.push(digest);
        }
        // The head goes last: a crash before this line leaves the
        // previous (still valid) head in place.
        write_atomically(
            &dir.join(ACTIVE_FILE),
            format!("{active:016x}\n").as_bytes(),
        )?;
        sync_dir(dir);
        digests.sort_unstable();
        Ok(PersistReport {
            digests,
            skipped: Vec::new(),
            active,
            active_fallback: false,
        })
    }

    /// Rebuilds a registry from a directory written by
    /// [`persist_to`](Self::persist_to), verifying every model twice: the
    /// byte layout's own digest trailer must check out
    /// (`FrozenModel::from_bytes`) *and* the recomputed content digest
    /// must match the digest in the file name. Corrupt, truncated or
    /// misnamed files are skipped and listed in the report instead of
    /// failing the reload, so one bad file can never take recovery down
    /// with it. The `ACTIVE` head is restored when it names a loaded
    /// model; otherwise the smallest loaded digest becomes active and
    /// the report flags the fallback.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] when the directory cannot be read or not a
    /// single valid model survives verification.
    pub fn load_from(dir: impl AsRef<Path>) -> Result<(ModelRegistry, PersistReport), ServerError> {
        let dir = dir.as_ref();
        let entries = fs::read_dir(dir).map_err(|e| store_err("read store dir", dir, &e))?;
        let mut models: HashMap<u64, Arc<FrozenModel>> = HashMap::new();
        let mut skipped: Vec<(String, String)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(named_digest) = model_file_digest(&name) else {
                continue; // not a model file (ACTIVE, temp leftovers, …)
            };
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    skipped.push((name, format!("unreadable: {e}")));
                    continue;
                }
            };
            match FrozenModel::from_bytes(&bytes) {
                Ok(model) if model.content_digest() == named_digest => {
                    models.insert(named_digest, Arc::new(model));
                }
                Ok(model) => skipped.push((
                    name,
                    format!(
                        "digest mismatch: file named {named_digest:016x}, content is {:016x}",
                        model.content_digest()
                    ),
                )),
                Err(e) => skipped.push((name, format!("rejected: {e}"))),
            }
        }
        let mut digests: Vec<u64> = models.keys().copied().collect();
        digests.sort_unstable();
        let Some(&fallback) = digests.first() else {
            return Err(ServerError::Store {
                detail: format!(
                    "no valid model in {} ({} file(s) skipped)",
                    dir.display(),
                    skipped.len()
                ),
            });
        };
        let head = fs::read_to_string(dir.join(ACTIVE_FILE))
            .ok()
            .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
            .filter(|d| models.contains_key(d));
        let active_fallback = head.is_none();
        let active = head.unwrap_or(fallback);
        let registry = ModelRegistry {
            inner: RwLock::new(Inner { models, active }),
        };
        Ok((
            registry,
            PersistReport {
                digests,
                skipped,
                active,
                active_fallback,
            },
        ))
    }
}

/// Outcome of a [`ModelRegistry::persist_to`] /
/// [`ModelRegistry::load_from`] round-trip.
#[derive(Debug, Clone)]
pub struct PersistReport {
    /// Digests written (persist) or verified and loaded (load), sorted.
    pub digests: Vec<u64>,
    /// Files skipped on load as `(file name, reason)` — corrupt,
    /// truncated, misnamed or unreadable. Always empty after a persist.
    pub skipped: Vec<(String, String)>,
    /// The active digest recorded (persist) or restored (load).
    pub active: u64,
    /// True when the `ACTIVE` head was missing, unparsable or named a
    /// model that failed verification, and the smallest loaded digest
    /// was activated instead.
    pub active_fallback: bool,
}

fn store_err(what: &str, path: &Path, e: &dyn std::fmt::Display) -> ServerError {
    ServerError::Store {
        detail: format!("{what} {}: {e}", path.display()),
    }
}

/// Parses `model-<digest:016x>.dfrm` file names.
fn model_file_digest(name: &str) -> Option<u64> {
    let hex = name
        .strip_prefix("model-")?
        .strip_suffix(&format!(".{MODEL_EXT}"))?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Temp-file + fsync + atomic rename: readers (and crashes) see either
/// the complete old file or the complete new one.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), ServerError> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!(".tmp-{file_name}"));
    let mut f = fs::File::create(&tmp).map_err(|e| store_err("create", &tmp, &e))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| store_err("write", &tmp, &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| store_err("rename into", path, &e))
}

/// Best-effort directory sync so the renames themselves are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_core::DfrClassifier;

    fn frozen(tweak: f64) -> FrozenModel {
        let mut m = DfrClassifier::paper_default(5, 2, 3, 1).unwrap();
        m.reservoir_mut().set_params(0.05, 0.1).unwrap();
        m.w_out_mut()[(0, 2)] = tweak;
        FrozenModel::freeze(&m)
    }

    #[test]
    fn publish_hot_swaps_the_active_model_atomically() {
        let a = frozen(0.1);
        let b = frozen(0.2);
        let (da, db) = (a.content_digest(), b.content_digest());
        assert_ne!(da, db);

        let reg = ModelRegistry::new(a);
        assert_eq!(reg.active_digest(), da);
        assert_eq!(reg.active().content_digest(), da);

        assert_eq!(reg.publish(b), db);
        assert_eq!(reg.active_digest(), db);
        assert_eq!(reg.active().content_digest(), db);
        // The old model stays resolvable for digest-pinned clients.
        assert_eq!(reg.get(da).unwrap().content_digest(), da);
        assert_eq!(reg.digests().len(), 2);
    }

    #[test]
    fn activate_requires_registration() {
        let a = frozen(0.1);
        let b = frozen(0.2);
        let (da, db) = (a.content_digest(), b.content_digest());
        let reg = ModelRegistry::new(a);
        assert_eq!(reg.publish(b), db);
        reg.activate(da).unwrap();
        assert_eq!(reg.active_digest(), da);
        assert!(matches!(
            reg.activate(0xdead),
            Err(ServerError::UnknownDigest { digest: 0xdead })
        ));
    }

    #[test]
    fn lookups_pin_and_reject_unknown_digests() {
        let a = frozen(0.3);
        let da = a.content_digest();
        let reg = ModelRegistry::new(a);
        assert_eq!(reg.get(da).unwrap().content_digest(), da);
        assert!(reg.contains(da));
        assert!(!reg.contains(42));
        assert!(reg.get(42).is_none());
    }

    #[test]
    fn retire_refuses_the_active_model() {
        let a = frozen(0.1);
        let b = frozen(0.2);
        let (da, db) = (a.content_digest(), b.content_digest());
        let reg = ModelRegistry::new(a);
        reg.publish(b);
        assert!(matches!(
            reg.retire(db),
            Err(ServerError::RetireActive { .. })
        ));
        reg.retire(da).unwrap();
        assert!(!reg.contains(da));
        assert!(matches!(
            reg.retire(da),
            Err(ServerError::UnknownDigest { .. })
        ));
        assert_eq!(reg.digests(), vec![db]);
    }

    /// A unique scratch dir under the system temp dir, removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "dfr-store-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            ScratchDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn persist_then_load_restores_models_and_active_head() {
        let scratch = ScratchDir::new("roundtrip");
        let a = frozen(0.1);
        let b = frozen(0.2);
        let (da, db) = (a.content_digest(), b.content_digest());
        let reg = ModelRegistry::new(a);
        reg.publish(b);

        let report = reg.persist_to(scratch.path()).unwrap();
        let mut expected = vec![da, db];
        expected.sort_unstable();
        assert_eq!(report.digests, expected);
        assert_eq!(report.active, db);
        assert!(report.skipped.is_empty());

        let (loaded, report) = ModelRegistry::load_from(scratch.path()).unwrap();
        assert_eq!(report.digests, expected);
        assert!(report.skipped.is_empty());
        assert!(!report.active_fallback);
        assert_eq!(loaded.active_digest(), db);
        // Digest-verified: the reloaded bytes are bitwise the originals.
        assert_eq!(
            loaded.get(da).unwrap().to_bytes(),
            reg.get(da).unwrap().to_bytes()
        );
    }

    #[test]
    fn load_skips_corrupt_files_and_reports_them() {
        let scratch = ScratchDir::new("corrupt");
        let a = frozen(0.1);
        let b = frozen(0.2);
        let (da, db) = (a.content_digest(), b.content_digest());
        let reg = ModelRegistry::new(a);
        reg.publish(b);
        reg.activate(da).unwrap();
        reg.persist_to(scratch.path()).unwrap();

        // Flip one payload byte of b's file: its digest trailer no
        // longer checks out, so the loader must skip it.
        let victim = scratch.path().join(format!("model-{db:016x}.dfrm"));
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&victim, bytes).unwrap();
        // And drop in garbage that only *looks* like a model file.
        fs::write(
            scratch
                .path()
                .join(format!("model-{:016x}.dfrm", 0x1234u64)),
            b"not a model",
        )
        .unwrap();

        let (loaded, report) = ModelRegistry::load_from(scratch.path()).unwrap();
        assert_eq!(report.digests, vec![da]);
        assert_eq!(report.skipped.len(), 2, "skipped: {:?}", report.skipped);
        assert_eq!(loaded.active_digest(), da);
        assert!(loaded.get(db).is_none());
    }

    #[test]
    fn load_falls_back_when_the_active_head_is_lost() {
        let scratch = ScratchDir::new("headless");
        let a = frozen(0.1);
        let da = a.content_digest();
        let reg = ModelRegistry::new(a);
        reg.persist_to(scratch.path()).unwrap();
        fs::remove_file(scratch.path().join(ACTIVE_FILE)).unwrap();

        let (loaded, report) = ModelRegistry::load_from(scratch.path()).unwrap();
        assert!(report.active_fallback);
        assert_eq!(loaded.active_digest(), da);
    }

    /// Persisting while a publisher thread hot-swaps new models must
    /// always produce a loadable store whose `ACTIVE` head names a model
    /// that was actually written: every reload reports
    /// `active_fallback == false`. This is the single-critical-section
    /// snapshot invariant in `persist_to` — if the models and the active
    /// head were read under separate lock acquisitions, a publish
    /// slipping between them would persist a head pointing at a model
    /// file that does not exist.
    #[test]
    fn persist_racing_publish_never_tears_the_active_head() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let reg = Arc::new(ModelRegistry::new(frozen(0.0)));
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Cycle a bounded set of distinct models so the store
                // stays small (persist rewrites every model, fsync'd)
                // while the active head keeps flipping under persist.
                let pool: Vec<FrozenModel> =
                    (0..8).map(|k| frozen(1.0 + k as f64 * 1e-3)).collect();
                let mut published = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    reg.publish(pool[published as usize % pool.len()].clone());
                    published += 1;
                }
                published
            })
        };

        for round in 0..20 {
            let scratch = ScratchDir::new(&format!("race-{round}"));
            let persisted = reg.persist_to(scratch.path()).unwrap();
            assert!(
                persisted.digests.binary_search(&persisted.active).is_ok(),
                "persisted head {:016x} must be among the persisted digests",
                persisted.active
            );
            let (loaded, report) = ModelRegistry::load_from(scratch.path()).unwrap();
            assert!(
                !report.active_fallback,
                "round {round}: reloaded head must be the persisted one, not a fallback"
            );
            assert_eq!(loaded.active_digest(), persisted.active);
            // Every persisted model survives the digest-verified reload.
            assert_eq!(report.digests, persisted.digests);
            assert!(report.skipped.is_empty(), "skipped: {:?}", report.skipped);
        }

        stop.store(true, Ordering::Relaxed);
        let published = publisher.join().unwrap();
        assert!(published > 0, "the publisher must actually have raced");
    }

    #[test]
    fn load_from_an_empty_store_is_a_typed_error() {
        let scratch = ScratchDir::new("empty");
        fs::create_dir_all(scratch.path()).unwrap();
        assert!(matches!(
            ModelRegistry::load_from(scratch.path()),
            Err(ServerError::Store { .. })
        ));
        assert!(matches!(
            ModelRegistry::load_from(scratch.path().join("missing")),
            Err(ServerError::Store { .. })
        ));
    }
}
