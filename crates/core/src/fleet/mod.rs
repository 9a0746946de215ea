//! `core::fleet` — the multi-tenant fleet runtime behind `squashd`.
//!
//! One `squashrun` process runs one image for one caller. The fleet layer
//! (`DESIGN.md` §17) runs a *store* of images for many tenants over a
//! `std::thread` worker pool, engineered for hostile multi-tenancy:
//!
//! * **Admission control.** The queue is bounded by
//!   [`FleetConfig::queue_limit`] counting *outstanding* (queued + running)
//!   jobs; past the bound, [`Fleet::submit`] sheds with a typed
//!   [`FleetError::Overloaded`] — explicit backpressure, never unbounded
//!   memory growth.
//! * **Deadlines.** Every instance runs under a cycle-budget deadline
//!   (request → tenant budget → fleet default) enforced *inside* the VM
//!   step loop and before every decompressor charge as a typed
//!   `deadline_exceeded` machine check ([`squash_vm::Vm::set_deadline`]) —
//!   a runaway guest can cost at most its budget, never a hang.
//! * **Quarantine.** An image that machine-checks
//!   [`FleetConfig::quarantine_threshold`] times is quarantined; later
//!   submissions fail fast with [`FleetError::Quarantined`] without
//!   touching a worker. Deadline faults are resource-policy events, not
//!   image corruption, and deliberately do **not** count toward quarantine.
//!   Transient image-load I/O errors retry with capped exponential backoff
//!   and deterministic seeded jitter ([`RetryPolicy`]).
//! * **Isolation.** Each instance owns its VM, memory, and
//!   `RuntimeStats`; the only shared mutable structure is the host-side
//!   decode cache ([`cache::SharedRegionCache`]), which never alters
//!   simulated state. A tenant hitting quarantine, deadline, or
//!   backpressure leaves every co-tenant's run byte/cycle-identical to a
//!   solo `squashrun` (`tests/fleet.rs` asserts this across worker
//!   counts).
//! * **Containment.** Worker threads wrap each run in an unwind guard: a
//!   panic — which the rest of the test pyramid asserts cannot happen —
//!   would surface as [`FleetError::Internal`] for that request instead of
//!   taking down the pool.

pub mod cache;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use squash_vm::{FaultKind, MachineCheck};

use crate::layout::Squashed;
use crate::pipeline::{self, RunResult};
use crate::telemetry::{FaultCount, Telemetry};
use crate::{image_file, SquashError};

use cache::{CacheStats, SharedRegionCache};

/// Retry schedule for transient image-load failures: capped exponential
/// backoff with deterministic, seeded jitter. The delay for `(key,
/// attempt)` is a pure function of the policy — two fleets configured
/// alike back off identically, which keeps soak runs reproducible while
/// still decorrelating tenants (the jitter hashes the image name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub attempts: u32,
    /// Base delay in milliseconds; attempt `n` waits `base_ms << n` before
    /// jitter, capped at `cap_ms`.
    pub base_ms: u64,
    /// Upper bound on the exponential component.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 3, base_ms: 5, cap_ms: 100, seed: 0x5143_5355_4153_4844 }
    }
}

/// SplitMix64 — the same generator the testkit uses, vendored here so the
/// jitter stays deterministic without a dev-dependency.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the key string, for mixing image names into the jitter.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1_0000_01B3);
    }
    h
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (0-based) of loading
    /// `key`, in milliseconds: `min(base << attempt, cap)` plus a
    /// deterministic jitter of at most half that.
    pub fn delay_ms(&self, key: &str, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms);
        let span = exp / 2 + 1;
        exp + splitmix(self.seed ^ fnv1a(key) ^ attempt as u64) % span
    }

    /// The full deterministic delay schedule for `key`.
    pub fn delays_ms(&self, key: &str) -> Vec<u64> {
        (0..self.attempts).map(|a| self.delay_ms(key, a)).collect()
    }
}

/// Why the fleet rejected or failed a request. Every variant is *typed* —
/// the chaos harness asserts that hostile inputs only ever surface as one
/// of these (or a byte-identical run), never a panic or a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The store has no image by this name (not retried: a missing file is
    /// not transient).
    UnknownImage {
        /// The requested image name.
        image: String,
    },
    /// Transient I/O kept failing after the full retry schedule.
    Load {
        /// The requested image name.
        image: String,
        /// Attempts made (1 initial + retries).
        attempts: u32,
        /// The final I/O error.
        error: String,
    },
    /// The image is quarantined after repeated machine checks; the request
    /// failed fast without reaching a worker.
    Quarantined {
        /// The quarantined image name.
        image: String,
        /// Machine checks recorded against it.
        faults: u32,
    },
    /// Admission control shed the request: the bounded queue was full.
    Overloaded {
        /// Outstanding (queued + running) jobs at submission.
        outstanding: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The run (or image parse) raised a typed machine check — including
    /// `deadline_exceeded` for cycle-budget violations.
    Fault(MachineCheck),
    /// The run failed without a machine check (legacy untyped faults, e.g.
    /// the step limit).
    Run {
        /// The failure message.
        message: String,
    },
    /// A contained panic inside a worker. The chaos harness asserts this
    /// count stays zero; the variant exists so that even the impossible is
    /// an error, not a dead pool.
    Internal {
        /// The panic payload, if printable.
        message: String,
    },
}

impl FleetError {
    /// Stable snake_case label for metrics and `squashd` output.
    pub fn kind(&self) -> &'static str {
        match self {
            FleetError::UnknownImage { .. } => "unknown_image",
            FleetError::Load { .. } => "load",
            FleetError::Quarantined { .. } => "quarantined",
            FleetError::Overloaded { .. } => "overloaded",
            FleetError::Fault(_) => "machine_check",
            FleetError::Run { .. } => "run",
            FleetError::Internal { .. } => "internal",
        }
    }

    /// The machine check, when this error carries one.
    pub fn machine_check(&self) -> Option<&MachineCheck> {
        match self {
            FleetError::Fault(mc) => Some(mc),
            _ => None,
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownImage { image } => write!(f, "unknown image `{image}`"),
            FleetError::Load { image, attempts, error } => {
                write!(f, "loading `{image}` failed after {attempts} attempts: {error}")
            }
            FleetError::Quarantined { image, faults } => {
                write!(f, "image `{image}` is quarantined ({faults} machine checks)")
            }
            FleetError::Overloaded { outstanding, limit } => {
                write!(f, "admission shed: {outstanding} outstanding >= limit {limit}")
            }
            FleetError::Fault(mc) => write!(f, "{mc}"),
            FleetError::Run { message } => f.write_str(message),
            FleetError::Internal { message } => write!(f, "contained panic: {message}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// A parsed image held by the store, with the stable id the shared decode
/// cache keys on.
#[derive(Debug)]
pub struct LoadedImage {
    /// Store name (file stem for directory stores).
    pub name: String,
    /// Store-assigned id, stable for the store's lifetime.
    pub id: u64,
    /// The parsed image.
    pub squashed: Squashed,
}

/// A store of `.sqsh` images: a directory, in-memory entries (tests,
/// chaos mutations), or both. Images parse lazily on first request and are
/// cached parsed; transient read errors follow the [`RetryPolicy`].
#[derive(Debug)]
pub struct ImageStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<String, Vec<u8>>>,
    loaded: Mutex<HashMap<String, Arc<LoadedImage>>>,
    next_id: AtomicU64,
    retry: RetryPolicy,
    retries_observed: AtomicU64,
}

impl ImageStore {
    /// A store over `dir`: image `name` lives at `dir/name.sqsh`.
    pub fn open(dir: impl Into<PathBuf>, retry: RetryPolicy) -> ImageStore {
        ImageStore {
            dir: Some(dir.into()),
            mem: Mutex::new(HashMap::new()),
            loaded: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            retry,
            retries_observed: AtomicU64::new(0),
        }
    }

    /// A purely in-memory store (tests and the chaos harness).
    pub fn in_memory(retry: RetryPolicy) -> ImageStore {
        ImageStore {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            loaded: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            retry,
            retries_observed: AtomicU64::new(0),
        }
    }

    /// Adds (or replaces) raw image bytes under `name`. Replacement drops
    /// any cached parse so the new bytes take effect.
    pub fn add_bytes(&self, name: impl Into<String>, bytes: Vec<u8>) {
        let name = name.into();
        lock_recover(&self.loaded).remove(&name);
        lock_recover(&self.mem).insert(name, bytes);
    }

    /// The image names available: in-memory entries plus `*.sqsh` file
    /// stems in the directory, sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory.
    pub fn names(&self) -> std::io::Result<Vec<String>> {
        let mut names: Vec<String> = lock_recover(&self.mem).keys().cloned().collect();
        if let Some(dir) = &self.dir {
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "sqsh") {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        names.push(stem.to_string());
                    }
                }
            }
        }
        names.sort();
        names.dedup();
        Ok(names)
    }

    /// Backoff sleeps taken so far (observability for the retry path).
    pub fn load_retries(&self) -> u64 {
        self.retries_observed.load(Ordering::Relaxed)
    }

    /// Reads raw bytes for `name`, retrying transient I/O errors per the
    /// policy. A missing file or absent entry is `UnknownImage`
    /// immediately — "not found" is not transient.
    fn read_bytes(&self, name: &str) -> Result<Vec<u8>, FleetError> {
        if let Some(bytes) = lock_recover(&self.mem).get(name) {
            return Ok(bytes.clone());
        }
        let Some(dir) = &self.dir else {
            return Err(FleetError::UnknownImage { image: name.to_string() });
        };
        let path = dir.join(format!("{name}.sqsh"));
        let mut attempt = 0u32;
        loop {
            match std::fs::read(&path) {
                Ok(bytes) => return Ok(bytes),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(FleetError::UnknownImage { image: name.to_string() });
                }
                Err(e) => {
                    if attempt >= self.retry.attempts {
                        return Err(FleetError::Load {
                            image: name.to_string(),
                            attempts: attempt + 1,
                            error: e.to_string(),
                        });
                    }
                    let delay = self.retry.delay_ms(name, attempt);
                    self.retries_observed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(delay));
                    attempt += 1;
                }
            }
        }
    }

    /// The parsed image for `name`, loading and verifying it on first use.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownImage`] / [`FleetError::Load`] for the store
    /// layer; a typed [`FleetError::Fault`] when the bytes fail the image
    /// format's integrity checks.
    pub fn get(&self, name: &str) -> Result<Arc<LoadedImage>, FleetError> {
        if let Some(img) = lock_recover(&self.loaded).get(name) {
            return Ok(Arc::clone(img));
        }
        let bytes = self.read_bytes(name)?;
        let squashed = image_file::read(&bytes).map_err(fleet_error_from_squash)?;
        let mut loaded = lock_recover(&self.loaded);
        // A racing loader may have won; keep its id so cache keys stay
        // stable.
        if let Some(img) = loaded.get(name) {
            return Ok(Arc::clone(img));
        }
        let img = Arc::new(LoadedImage {
            name: name.to_string(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            squashed,
        });
        loaded.insert(name.to_string(), Arc::clone(&img));
        Ok(img)
    }
}

/// Maps pipeline/loader errors into the fleet taxonomy.
fn fleet_error_from_squash(e: SquashError) -> FleetError {
    match e.fault {
        Some(mc) => FleetError::Fault(mc),
        None => FleetError::Run { message: e.message },
    }
}

/// Per-tenant resource budgets; unset fields fall back to the fleet
/// defaults in [`FleetConfig`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudget {
    /// Shared-cache slot quota.
    pub cache_quota: Option<usize>,
    /// Per-instance cycle-budget deadline.
    pub deadline: Option<u64>,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads driving VM instances.
    pub workers: usize,
    /// Bound on outstanding (queued + running) jobs; submissions past it
    /// shed with [`FleetError::Overloaded`].
    pub queue_limit: usize,
    /// Machine checks before an image is quarantined.
    pub quarantine_threshold: u32,
    /// Default per-instance cycle-budget deadline (`None` = unlimited).
    pub default_deadline: Option<u64>,
    /// Shards in the shared decode cache.
    pub cache_shards: usize,
    /// Entries per shard.
    pub cache_shard_cap: usize,
    /// Default per-tenant shared-cache slot quota.
    pub cache_quota: usize,
    /// Retry schedule for transient image loads.
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            workers: 4,
            queue_limit: 256,
            quarantine_threshold: 3,
            default_deadline: None,
            cache_shards: 8,
            cache_shard_cap: 16,
            cache_quota: 32,
            retry: RetryPolicy::default(),
        }
    }
}

/// One unit of fleet work: run `image` on `input` for `tenant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requesting tenant.
    pub tenant: String,
    /// Store name of the image to run.
    pub image: String,
    /// Guest input bytes.
    pub input: Vec<u8>,
    /// Request-level deadline override (cycles).
    pub deadline: Option<u64>,
}

/// Per-tenant counters, snapshot via [`Fleet::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Tenant name.
    pub tenant: String,
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Runs that completed cleanly.
    pub ok: u64,
    /// Runs that ended in a machine check (including deadlines).
    pub faults: u64,
    /// Of `faults`, how many were `deadline_exceeded`.
    pub deadline_faults: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests rejected fast because the image was quarantined.
    pub quarantine_rejected: u64,
    /// Image-load failures after retries, plus unknown images.
    pub load_errors: u64,
    /// Untyped run failures.
    pub run_errors: u64,
    /// Contained panics (asserted zero by the chaos harness).
    pub internal_errors: u64,
    /// Simulated cycles across this tenant's clean runs.
    pub cycles: u64,
    /// Instructions across this tenant's clean runs.
    pub instructions: u64,
}

/// A fleet metrics snapshot: per-tenant counters, shared-cache counters,
/// and the quarantine ledger.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Per-tenant counters, sorted by tenant name.
    pub tenants: Vec<TenantMetrics>,
    /// Shared decode-cache counters.
    pub cache: CacheStats,
    /// `(image, machine-check count, quarantined?)` per image with
    /// recorded faults.
    pub quarantine: Vec<(String, u32, bool)>,
    /// Backoff sleeps taken by the image store.
    pub load_retries: u64,
}

#[derive(Debug, Default)]
struct TenantInfo {
    id: u32,
    budget: TenantBudget,
    metrics: TenantMetrics,
    /// Per-tenant merged telemetry document (name = tenant).
    telemetry: Telemetry,
}

#[derive(Debug, Default)]
struct QuarantineState {
    faults: u32,
    quarantined: bool,
}

struct Job {
    id: u64,
    tenant: String,
    tenant_id: u32,
    image: String,
    input: Vec<u8>,
    deadline: Option<u64>,
    cache_quota: usize,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    outstanding: usize,
    gated: bool,
    shutdown: bool,
    results: HashMap<u64, Result<RunResult, FleetError>>,
    next_job: u64,
    next_tenant: u32,
    tenants: BTreeMap<String, TenantInfo>,
    quarantine: HashMap<String, QuarantineState>,
}

impl State {
    /// Gets or creates the tenant record, assigning ids in first-seen order.
    fn tenant(&mut self, name: &str) -> &mut TenantInfo {
        if !self.tenants.contains_key(name) {
            let id = self.next_tenant;
            self.next_tenant += 1;
            self.tenants
                .insert(name.to_string(), TenantInfo { id, ..TenantInfo::default() });
        }
        self.tenants.get_mut(name).expect("tenant just inserted")
    }
}

struct Inner {
    store: ImageStore,
    cfg: FleetConfig,
    cache: Arc<SharedRegionCache>,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Locks a possibly-poisoned mutex, recovering the data (a contained
/// panic must not cascade into every later lock).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The fleet runtime: an image store, a shared decode cache, and a worker
/// pool with admission control and quarantine. See the module docs.
pub struct Fleet {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.workers.len())
            .field("config", &self.inner.cfg)
            .finish()
    }
}

/// A submitted job's handle; redeem it with [`Fleet::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

impl Fleet {
    /// Starts a fleet over `store` with `cfg.workers` worker threads.
    pub fn new(store: ImageStore, cfg: FleetConfig) -> Fleet {
        let cache = SharedRegionCache::new(cfg.cache_shards, cfg.cache_shard_cap);
        let inner = Arc::new(Inner {
            store,
            cache,
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("squashd-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn fleet worker")
            })
            .collect();
        Fleet { inner, workers }
    }

    /// Sets a per-tenant budget override (cache quota, deadline).
    pub fn set_tenant_budget(&self, tenant: &str, budget: TenantBudget) {
        let mut state = lock_recover(&self.inner.state);
        state.tenant(tenant).budget = budget;
    }

    /// Submits one request through admission control. Typed failure —
    /// quarantine fast-fail or backpressure shed — is returned immediately
    /// and also recorded in the tenant's counters.
    ///
    /// # Errors
    ///
    /// [`FleetError::Quarantined`] and [`FleetError::Overloaded`]; both
    /// mean the request never reached a worker.
    pub fn submit(&self, req: Request) -> Result<JobId, FleetError> {
        let inner = &self.inner;
        let mut state = lock_recover(&inner.state);
        let (tenant_id, budget) = {
            let info = state.tenant(&req.tenant);
            info.metrics.submitted += 1;
            (info.id, info.budget)
        };
        if let Some(q) = state.quarantine.get(&req.image) {
            if q.quarantined {
                let err =
                    FleetError::Quarantined { image: req.image.clone(), faults: q.faults };
                state.tenant(&req.tenant).metrics.quarantine_rejected += 1;
                return Err(err);
            }
        }
        if state.outstanding >= inner.cfg.queue_limit {
            let err = FleetError::Overloaded {
                outstanding: state.outstanding,
                limit: inner.cfg.queue_limit,
            };
            state.tenant(&req.tenant).metrics.shed += 1;
            return Err(err);
        }
        state.next_job += 1;
        let id = state.next_job;
        let deadline = req
            .deadline
            .or(budget.deadline)
            .or(inner.cfg.default_deadline);
        state.queue.push_back(Job {
            id,
            tenant: req.tenant,
            tenant_id,
            image: req.image,
            input: req.input,
            deadline,
            cache_quota: budget.cache_quota.unwrap_or(inner.cfg.cache_quota),
        });
        state.outstanding += 1;
        drop(state);
        inner.work_cv.notify_one();
        Ok(JobId(id))
    }

    /// Holds workers idle while `true`; used by [`Fleet::run_batch`] so
    /// admission decisions for a burst are deterministic (nothing drains
    /// mid-submission).
    fn set_gate(&self, gated: bool) {
        let mut state = lock_recover(&self.inner.state);
        state.gated = gated;
        drop(state);
        self.inner.work_cv.notify_all();
    }

    /// Blocks until every outstanding job has completed, then takes `id`'s
    /// result. Returns `None` for an unknown or already-taken id.
    pub fn drain(&self, id: JobId) -> Option<Result<RunResult, FleetError>> {
        let mut state = lock_recover(&self.inner.state);
        while state.outstanding > 0 {
            state = self
                .inner
                .done_cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.results.remove(&id.0)
    }

    /// Runs a whole batch: submissions are **gated** (workers idle until
    /// every admission decision is made, making shed-vs-admit deterministic
    /// for a burst), then the pool drains and results come back in request
    /// order.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Result<RunResult, FleetError>> {
        self.set_gate(true);
        let tickets: Vec<Result<JobId, FleetError>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        self.set_gate(false);
        tickets
            .into_iter()
            .map(|t| match t {
                Err(e) => Err(e),
                Ok(id) => self.drain(id).unwrap_or_else(|| {
                    Err(FleetError::Internal { message: "result lost".to_string() })
                }),
            })
            .collect()
    }

    /// A metrics snapshot: per-tenant counters, cache counters, quarantine
    /// ledger.
    pub fn metrics(&self) -> FleetMetrics {
        let state = lock_recover(&self.inner.state);
        let mut quarantine: Vec<(String, u32, bool)> = state
            .quarantine
            .iter()
            .map(|(k, v)| (k.clone(), v.faults, v.quarantined))
            .collect();
        quarantine.sort();
        FleetMetrics {
            tenants: state
                .tenants
                .iter()
                .map(|(name, info)| TenantMetrics {
                    tenant: name.clone(),
                    ..info.metrics.clone()
                })
                .collect(),
            cache: self.inner.cache.stats(),
            quarantine,
            load_retries: self.inner.store.load_retries(),
        }
    }

    /// Per-tenant merged telemetry documents (name = tenant), sorted by
    /// tenant — the fleet analogue of `squashrun --metrics-json`, ready for
    /// `squashmon`.
    pub fn tenant_telemetry(&self) -> Vec<Telemetry> {
        let state = lock_recover(&self.inner.state);
        state
            .tenants
            .iter()
            .map(|(name, info)| Telemetry {
                name: name.clone(),
                ..info.telemetry.clone()
            })
            .collect()
    }

    /// The shared decode cache (stress tests and stats).
    pub fn cache(&self) -> &Arc<SharedRegionCache> {
        &self.inner.cache
    }

    /// The image store.
    pub fn store(&self) -> &ImageStore {
        &self.inner.store
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        {
            let mut state = lock_recover(&self.inner.state);
            state.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut state = lock_recover(&inner.state);
            loop {
                if let Some(job) = (!state.gated).then(|| state.queue.pop_front()).flatten() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(inner, &job)))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(FleetError::Internal { message })
            });
        finish_job(inner, &job, result);
    }
}

/// Executes one job: load (with retry), then run with the job's deadline
/// and a shared-cache handle bound to `(image, tenant, quota)`.
fn run_job(inner: &Arc<Inner>, job: &Job) -> Result<RunResult, FleetError> {
    let img = inner.store.get(&job.image)?;
    let handle = inner.cache.handle(img.id, job.tenant_id, job.cache_quota);
    let spec = pipeline::RunSpec {
        deadline: job.deadline,
        cache: Some(handle),
        ..pipeline::RunSpec::default()
    };
    pipeline::run_squashed_with(&img.squashed, &job.input, spec)
        .map(|(run, _)| run)
        .map_err(fleet_error_from_squash)
}

/// Records a completed job: result slot, tenant counters, per-tenant
/// telemetry, quarantine ledger.
fn finish_job(inner: &Arc<Inner>, job: &Job, result: Result<RunResult, FleetError>) {
    let mut state = lock_recover(&inner.state);
    // Quarantine ledger first (borrows don't overlap the tenant entry).
    if let Some(mc) = result.as_ref().err().and_then(|e| e.machine_check()) {
        if mc.kind != FaultKind::DeadlineExceeded {
            let q = state.quarantine.entry(job.image.clone()).or_default();
            q.faults += 1;
            if q.faults >= inner.cfg.quarantine_threshold {
                q.quarantined = true;
            }
        }
    }
    {
        let info = state.tenant(&job.tenant);
        match &result {
            Ok(run) => {
                info.metrics.ok += 1;
                info.metrics.cycles = info.metrics.cycles.saturating_add(run.cycles);
                info.metrics.instructions =
                    info.metrics.instructions.saturating_add(run.instructions);
                let doc = run.telemetry(&job.tenant);
                info.telemetry = Telemetry::merge(&[info.telemetry.clone(), doc]);
            }
            Err(FleetError::Fault(mc)) => {
                info.metrics.faults += 1;
                if mc.kind == FaultKind::DeadlineExceeded {
                    info.metrics.deadline_faults += 1;
                }
                let doc = Telemetry {
                    name: job.tenant.clone(),
                    faults: vec![FaultCount { kind: mc.kind.name().to_string(), count: 1 }],
                    ..Telemetry::default()
                };
                info.telemetry = Telemetry::merge(&[info.telemetry.clone(), doc]);
            }
            Err(FleetError::UnknownImage { .. }) | Err(FleetError::Load { .. }) => {
                info.metrics.load_errors += 1;
            }
            Err(FleetError::Run { .. }) => info.metrics.run_errors += 1,
            Err(FleetError::Internal { .. }) => info.metrics.internal_errors += 1,
            // Admission errors never reach a worker.
            Err(FleetError::Quarantined { .. }) | Err(FleetError::Overloaded { .. }) => {}
        }
    }
    state.results.insert(job.id, result);
    state.outstanding -= 1;
    let done = state.outstanding == 0;
    drop(state);
    if done {
        inner.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_deterministic_capped_and_grow() {
        let p = RetryPolicy { attempts: 6, base_ms: 4, cap_ms: 32, seed: 7 };
        let a = p.delays_ms("imageA");
        let b = p.delays_ms("imageA");
        assert_eq!(a, b, "same key, same schedule");
        assert_ne!(a, p.delays_ms("imageB"), "jitter decorrelates keys");
        assert_eq!(a.len(), 6);
        // Exponential component: 4, 8, 16, 32, 32, 32 — jitter adds at most
        // half, so every delay is within [exp, exp * 1.5].
        for (i, &d) in a.iter().enumerate() {
            let exp = (4u64 << i).min(32);
            assert!(d >= exp && d <= exp + exp / 2, "delay[{i}] = {d}, exp = {exp}");
        }
    }

    #[test]
    fn unknown_image_is_immediate_not_retried() {
        let store = ImageStore::in_memory(RetryPolicy { attempts: 5, ..Default::default() });
        let err = store.get("nope").unwrap_err();
        assert!(matches!(err, FleetError::UnknownImage { .. }));
        assert_eq!(store.load_retries(), 0);
    }

    #[test]
    fn corrupt_bytes_surface_as_typed_fault() {
        let store = ImageStore::in_memory(RetryPolicy::default());
        store.add_bytes("bad", b"definitely not an image".to_vec());
        match store.get("bad") {
            Err(FleetError::Fault(mc)) => {
                assert_eq!(mc.kind, FaultKind::BadMagic);
            }
            other => panic!("expected typed fault, got {other:?}"),
        }
    }

    #[test]
    fn error_kinds_are_stable() {
        let labels = [
            FleetError::UnknownImage { image: "x".into() }.kind(),
            FleetError::Overloaded { outstanding: 1, limit: 1 }.kind(),
            FleetError::Quarantined { image: "x".into(), faults: 3 }.kind(),
        ];
        assert_eq!(labels, ["unknown_image", "overloaded", "quarantined"]);
    }
}
