//! Runtime-dispatched SIMD GEMM microkernels (`DESIGN.md` §13).
//!
//! The register-tiled products of [`crate::gemm`] funnel every multiply-add
//! through one `MR × NR` microkernel pair (accumulate / subtract). This
//! module provides that pair in two flavours and picks one **at runtime**:
//!
//! * `scalar` — the portable floor, plain Rust loops (always available;
//!   the fallback on hosts without AVX2 and on non-x86 targets).
//! * `avx2` — 4-lane `__m256d` kernel (requires runtime AVX2 detection).
//!
//! # Bit-identity (the `DESIGN.md` §8 contract)
//!
//! The AVX2 kernel vectorises across the **m/n lanes of the tile**
//! only: lane `j` of a vector holds output element `(i, j)`, and one `k`
//! step performs one vector multiply followed by one vector add — never a
//! fused multiply-add. IEEE 754 arithmetic is correctly rounded per lane,
//! so each output element sees exactly the scalar reference's operation
//! sequence (`k` ascending, one `mul` + one `add` per step from `+0.0`)
//! and it is **bitwise identical** to `scalar`. That is
//! why the whole §8 pinning apparatus — product property suites, the
//! golden frozen-model digest, the serve loopback oracle — keeps holding
//! for free no matter which kernel dispatch picks.
//!
//! # Selection order
//!
//! [`active`] resolves, in order: the calling thread's [`with_kernel`]
//! override → the process default, computed once on first use from
//! `DFR_KERNEL` (exact kernel, panicking loudly if unknown or unavailable
//! — differential CI must not silently fall back) or, with no env var,
//! the best detected kernel (`avx2` when detected, else `scalar`). Both
//! pieces are the shared `dfr_pool::knob` helpers.
//!
//! Products resolve their kernel **once at entry on the calling thread**
//! and carry it into their parallel bands, so a [`with_kernel`] scope
//! covers a product's whole fan-out. Products issued *from inside* pool
//! workers (nested parallelism, e.g. per-sample feature extraction)
//! resolve on the worker thread instead — pin `dfr_pool::with_threads(1)`
//! around such flows, or use `DFR_KERNEL`, to hold one kernel end to end.

// The SIMD kernels are the one place in the workspace that needs
// `unsafe`: `std::arch` intrinsics and the raw-pointer panel walks they
// operate on. Every unsafe fn is gated by the dispatch table so it can
// only run after its ISA extension was detected at runtime, and the safe
// wrappers assert the panel-length invariants the pointer arithmetic
// relies on.

use crate::gemm::{MR, NR};
use std::cell::Cell;
use std::sync::OnceLock;

/// The microkernel signature: one full-`k` pass over an `MR`-row A panel
/// and an `NR`-column B panel, accumulating into (or subtracting from) a
/// register tile. Panels are packed as `panel[k][lane]` with lanes
/// contiguous per `k` step ([`crate::gemm`]'s packing layout).
pub type MicroKernelFn = fn(&[f64], &[f64], &mut [[f64; NR]; MR]);

/// Identifies one entry of the kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar loops — the reference the AVX2 kernel must match.
    Scalar,
    /// 4-lane AVX2 kernel (runtime-detected).
    Avx2,
}

impl KernelKind {
    /// Every kind.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Avx2];

    /// The `DFR_KERNEL` spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
        }
    }

    /// Parses a `DFR_KERNEL` value (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelKind> {
        let s = s.trim().to_ascii_lowercase();
        KernelKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One entry of the dispatch table: a named microkernel pair.
///
/// `&'static Kernel` is what the products pass into their parallel bands;
/// the struct is `Sync` (function pointers and plain data), so one
/// resolution on the calling thread covers a whole fan-out.
pub struct Kernel {
    kind: KernelKind,
    pub(crate) mul_add: MicroKernelFn,
    pub(crate) mul_sub: MicroKernelFn,
}

impl Kernel {
    /// Which table entry this is.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The `DFR_KERNEL` spelling of this kernel.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The lane width [`Kernel::run_lanes`] instantiates: 4 under `avx2`
    /// (one `__m256d` per four `f64` lanes), 1 under `scalar`.
    pub fn lanes(&self) -> usize {
        match self.kind {
            KernelKind::Avx2 => 4,
            KernelKind::Scalar => 1,
        }
    }

    /// Runs `body` at [`Kernel::lanes`] lanes, compiled for this kernel's
    /// instruction set (see [`LaneBody`]).
    pub fn run_lanes<B: LaneBody>(&self, body: B) -> B::Output {
        match self.kind {
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => x86_entry::avx2_lanes(body),
            _ => body.run::<1>(),
        }
    }
}

/// A computation written once, generic over its SIMD lane width `L`, that
/// [`Kernel::run_lanes`] instantiates at the kernel's width
/// ([`Kernel::lanes`]) and compiles for the kernel's instruction set.
///
/// This is how lane-parallel code outside this crate — which stays
/// `unsafe`-free — gets AVX2 code generation: the implementation operates
/// on portable `[f64; L]` lane arrays, and `run_lanes` calls it from an
/// `#[target_feature(enable = "avx2")]` trampoline, where the vectoriser
/// maps four lanes onto one `__m256d`. Mark `run` and everything hot it
/// calls `#[inline(always)]`: only code inlined into the trampoline is
/// compiled for the wider instruction set. Keep rare exits out of the hot
/// loops, e.g. build an error in a `#[cold]` function: an early
/// `return Err(..)` inside them once cost the lane feature kernel about a
/// quarter of its speed. The target feature adds no FMA, so separate
/// multiplies and adds stay separate and every lane rounds exactly as the
/// scalar chain does.
pub trait LaneBody {
    /// What the computation returns.
    type Output;

    /// Runs the computation with `L` lanes.
    fn run<const L: usize>(self) -> Self::Output;
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("kind", &self.kind).finish()
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (the portable floor and the bit-identity reference).
// ---------------------------------------------------------------------------

/// The scalar `MR × NR` multiply-add microkernel:
/// `acc[i][j] += a[k][i] · b[k][j]` for every `k` step, ascending. The
/// accumulator stays in locals; the `MR·NR` lanes are independent, so the
/// inner body vectorises without reassociating any per-element sum.
pub(crate) fn scalar_mul_add(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (accr, &ai) in acc.iter_mut().zip(av) {
            for (slot, &bj) in accr.iter_mut().zip(bv) {
                *slot += ai * bj;
            }
        }
    }
}

/// The scalar subtractive microkernel: `acc[i][j] -= a[k][i] · b[k][j]`,
/// `k` ascending — the trailing-update core of the blocked Cholesky.
pub(crate) fn scalar_mul_sub(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (accr, &ai) in acc.iter_mut().zip(av) {
            for (slot, &bj) in accr.iter_mut().zip(bv) {
                *slot -= ai * bj;
            }
        }
    }
}

/// Checks the packed-panel invariant the raw-pointer kernels rely on and
/// returns the shared `k` depth: `a_panel` holds `k` steps of `MR` lanes,
/// `b_panel` `k` steps of `NR` lanes.
#[cfg(target_arch = "x86_64")]
fn panel_depth(a_panel: &[f64], b_panel: &[f64]) -> usize {
    let k = a_panel.len() / MR;
    assert!(
        a_panel.len() == k * MR && b_panel.len() == k * NR,
        "microkernel panels disagree: a={} b={} (MR={MR}, NR={NR})",
        a_panel.len(),
        b_panel.len(),
    );
    k
}

// ---------------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{panel_depth, MR, NR};
    use std::arch::x86_64::*;

    /// AVX2 multiply-add tile: the 4×8 accumulator lives in eight
    /// `__m256d` registers (two per row); each `k` step broadcasts the
    /// four A lanes, loads the eight B lanes, and issues one
    /// `_mm256_mul_pd` + one `_mm256_add_pd` per accumulator — mul and
    /// add deliberately separate so per-element rounding matches the
    /// scalar chain bit for bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (dispatch only installs this after
    /// `is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_mul_add(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        let p = acc.as_mut_ptr() as *mut f64;
        let mut c00 = _mm256_loadu_pd(p);
        let mut c01 = _mm256_loadu_pd(p.add(4));
        let mut c10 = _mm256_loadu_pd(p.add(8));
        let mut c11 = _mm256_loadu_pd(p.add(12));
        let mut c20 = _mm256_loadu_pd(p.add(16));
        let mut c21 = _mm256_loadu_pd(p.add(20));
        let mut c30 = _mm256_loadu_pd(p.add(24));
        let mut c31 = _mm256_loadu_pd(p.add(28));
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..k {
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            let a0 = _mm256_broadcast_sd(&*ap);
            c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
            c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
            let a1 = _mm256_broadcast_sd(&*ap.add(1));
            c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
            c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
            let a2 = _mm256_broadcast_sd(&*ap.add(2));
            c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
            c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
            let a3 = _mm256_broadcast_sd(&*ap.add(3));
            c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
            c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        _mm256_storeu_pd(p, c00);
        _mm256_storeu_pd(p.add(4), c01);
        _mm256_storeu_pd(p.add(8), c10);
        _mm256_storeu_pd(p.add(12), c11);
        _mm256_storeu_pd(p.add(16), c20);
        _mm256_storeu_pd(p.add(20), c21);
        _mm256_storeu_pd(p.add(24), c30);
        _mm256_storeu_pd(p.add(28), c31);
    }

    /// The [`super::LaneBody`] trampoline: `body.run::<4>()` — and
    /// whatever it inlines — compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (see [`avx2_mul_add`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_lanes<B: super::LaneBody>(body: B) -> B::Output {
        body.run::<4>()
    }

    /// AVX2 subtractive tile: identical walk, `_mm256_sub_pd` epilogue.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (see [`avx2_mul_add`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_mul_sub(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        let p = acc.as_mut_ptr() as *mut f64;
        let mut c00 = _mm256_loadu_pd(p);
        let mut c01 = _mm256_loadu_pd(p.add(4));
        let mut c10 = _mm256_loadu_pd(p.add(8));
        let mut c11 = _mm256_loadu_pd(p.add(12));
        let mut c20 = _mm256_loadu_pd(p.add(16));
        let mut c21 = _mm256_loadu_pd(p.add(20));
        let mut c30 = _mm256_loadu_pd(p.add(24));
        let mut c31 = _mm256_loadu_pd(p.add(28));
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..k {
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            let a0 = _mm256_broadcast_sd(&*ap);
            c00 = _mm256_sub_pd(c00, _mm256_mul_pd(a0, b0));
            c01 = _mm256_sub_pd(c01, _mm256_mul_pd(a0, b1));
            let a1 = _mm256_broadcast_sd(&*ap.add(1));
            c10 = _mm256_sub_pd(c10, _mm256_mul_pd(a1, b0));
            c11 = _mm256_sub_pd(c11, _mm256_mul_pd(a1, b1));
            let a2 = _mm256_broadcast_sd(&*ap.add(2));
            c20 = _mm256_sub_pd(c20, _mm256_mul_pd(a2, b0));
            c21 = _mm256_sub_pd(c21, _mm256_mul_pd(a2, b1));
            let a3 = _mm256_broadcast_sd(&*ap.add(3));
            c30 = _mm256_sub_pd(c30, _mm256_mul_pd(a3, b0));
            c31 = _mm256_sub_pd(c31, _mm256_mul_pd(a3, b1));
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        _mm256_storeu_pd(p, c00);
        _mm256_storeu_pd(p.add(4), c01);
        _mm256_storeu_pd(p.add(8), c10);
        _mm256_storeu_pd(p.add(12), c11);
        _mm256_storeu_pd(p.add(16), c20);
        _mm256_storeu_pd(p.add(20), c21);
        _mm256_storeu_pd(p.add(24), c30);
        _mm256_storeu_pd(p.add(28), c31);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86_entry {
    //! Safe entry points: the only callers of the `unsafe` kernels above.

    use super::{x86, MR, NR};

    pub(super) fn avx2_mul_add(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: the dispatch table only exposes the AVX2 kernel after
        // `is_x86_feature_detected!("avx2")`; panel lengths are checked
        // inside.
        unsafe { x86::avx2_mul_add(a, b, acc) }
    }

    pub(super) fn avx2_mul_sub(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: as above.
        unsafe { x86::avx2_mul_sub(a, b, acc) }
    }

    pub(super) fn avx2_lanes<B: super::LaneBody>(body: B) -> B::Output {
        // SAFETY: only reachable through a `Kernel` of kind `Avx2`, which
        // the dispatch table hands out after
        // `is_x86_feature_detected!("avx2")`.
        unsafe { x86::avx2_lanes(body) }
    }
}

// ---------------------------------------------------------------------------
// The dispatch table.
// ---------------------------------------------------------------------------

static SCALAR: Kernel = Kernel {
    kind: KernelKind::Scalar,
    mul_add: scalar_mul_add,
    mul_sub: scalar_mul_sub,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernel = Kernel {
    kind: KernelKind::Avx2,
    mul_add: x86_entry::avx2_mul_add,
    mul_sub: x86_entry::avx2_mul_sub,
};

/// Looks a kernel up by kind, returning `None` when it is not compiled
/// into this build (wrong architecture) or its ISA extension was not
/// detected on this host. Detection runs once per kind (the `std`
/// detection macro caches internally).
pub fn kernel(kind: KernelKind) -> Option<&'static Kernel> {
    match kind {
        KernelKind::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => is_x86_feature_detected!("avx2").then_some(&AVX2),
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Avx2 => None,
    }
}

/// Every kernel available on this host and build, best first. The first
/// entry is what detection-based dispatch selects.
pub fn available() -> Vec<&'static Kernel> {
    let order = [KernelKind::Avx2, KernelKind::Scalar];
    order.into_iter().filter_map(kernel).collect()
}

/// The names of [`available`], `/`-separated, for error messages.
fn available_names() -> String {
    available()
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("/")
}

/// Parses a `DFR_KERNEL` value: an available kernel, or unset/blank.
fn kernel_from_env(raw: Option<&str>) -> Option<&'static Kernel> {
    let parse = |s: &str| KernelKind::parse(s).and_then(kernel);
    let accepted = format!("one of {}", available_names());
    dfr_pool::knob::parse_env("DFR_KERNEL", raw, parse, &accepted)
}

/// The process default: `DFR_KERNEL` if set (panicking on an unknown or
/// unavailable value), otherwise the best detected kernel.
fn default_kernel() -> &'static Kernel {
    static DEFAULT: OnceLock<&'static Kernel> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        kernel_from_env(std::env::var("DFR_KERNEL").ok().as_deref())
            .unwrap_or_else(|| *available().first().expect("scalar is always available"))
    })
}

thread_local! {
    /// Thread-local override installed by [`with_kernel`].
    static LOCAL_KERNEL: Cell<Option<&'static Kernel>> = const { Cell::new(None) };
}

/// The kernel products started from this thread will use.
///
/// Resolution order: [`with_kernel`] override → `DFR_KERNEL` → best
/// detected kernel.
pub fn active() -> &'static Kernel {
    LOCAL_KERNEL.with(Cell::get).unwrap_or_else(default_kernel)
}

/// Runs `f` with products resolved from this thread pinned to `kind`,
/// restoring the previous setting afterwards, even if `f` unwinds — the
/// scoped, race-free form differential tests use (mirrors
/// [`dfr_pool::with_threads`]).
///
/// Products resolve their kernel at entry on the calling thread and carry
/// it into their parallel bands, so the override covers a directly-called
/// product's whole fan-out. It does **not** reach products issued from
/// inside pool workers (nested parallelism); pin
/// `dfr_pool::with_threads(1, …)` around such flows or use `DFR_KERNEL`
/// for whole-process runs.
///
/// # Panics
///
/// Panics if `kind` is unavailable on this host/build.
///
/// # Example
///
/// ```
/// use dfr_linalg::kernels::{active, with_kernel, KernelKind};
///
/// let name = with_kernel(KernelKind::Scalar, || active().name());
/// assert_eq!(name, "scalar");
/// ```
pub fn with_kernel<R>(kind: KernelKind, f: impl FnOnce() -> R) -> R {
    let kern = kernel(kind).unwrap_or_else(|| {
        panic!(
            "kernel {} unavailable on this host/build (available: {})",
            kind.name(),
            available_names()
        )
    });
    dfr_pool::knob::scoped(&LOCAL_KERNEL, kern, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-element reference for one microkernel invocation.
    fn reference(a: &[f64], b: &[f64], k: usize, seed: &[[f64; NR]; MR], sub: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..MR {
            for j in 0..NR {
                let mut acc = seed[i][j];
                for kk in 0..k {
                    let term = a[kk * MR + i] * b[kk * NR + j];
                    if sub {
                        acc -= term;
                    } else {
                        acc += term;
                    }
                }
                out.push(acc);
            }
        }
        out
    }

    fn panels(k: usize) -> (Vec<f64>, Vec<f64>, [[f64; NR]; MR]) {
        let a: Vec<f64> = (0..k * MR).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..k * NR).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut seed = [[0.0; NR]; MR];
        for (i, row) in seed.iter_mut().enumerate() {
            for (j, s) in row.iter_mut().enumerate() {
                *s = ((i * NR + j) as f64 * 0.11).sin();
            }
        }
        (a, b, seed)
    }

    #[test]
    fn run_lanes_instantiates_the_kernel_width() {
        struct Width;
        impl LaneBody for Width {
            type Output = usize;
            fn run<const L: usize>(self) -> usize {
                L
            }
        }
        for kern in available() {
            assert_eq!(kern.run_lanes(Width), kern.lanes(), "{}", kern.name());
        }
    }

    #[test]
    fn every_kernel_matches_the_scalar_chain_bitwise() {
        for k in [0usize, 1, 5, 63, 64, 65] {
            let (a, b, seed) = panels(k);
            for kern in available() {
                let mut add = seed;
                (kern.mul_add)(&a, &b, &mut add);
                let want_add = reference(&a, &b, k, &seed, false);
                let mut sub = seed;
                (kern.mul_sub)(&a, &b, &mut sub);
                let want_sub = reference(&a, &b, k, &seed, true);
                for i in 0..MR {
                    for j in 0..NR {
                        assert_eq!(
                            add[i][j].to_bits(),
                            want_add[i * NR + j].to_bits(),
                            "{} mul_add k={k} tile ({i},{j})",
                            kern.name()
                        );
                        assert_eq!(
                            sub[i][j].to_bits(),
                            want_sub[i * NR + j].to_bits(),
                            "{} mul_sub k={k} tile ({i},{j})",
                            kern.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parse_and_names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
            assert_eq!(
                KernelKind::parse(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(KernelKind::parse("avx512"), None);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(kernel(KernelKind::Scalar).is_some());
        assert!(available().iter().any(|k| k.kind() == KernelKind::Scalar));
    }

    #[test]
    fn dfr_kernel_parses_available_kernels_and_panics_otherwise() {
        assert!(kernel_from_env(None).is_none());
        assert!(kernel_from_env(Some("")).is_none());
        let kind = |raw| kernel_from_env(Some(raw)).map(Kernel::kind);
        assert_eq!(kind(" scalar\t"), Some(KernelKind::Scalar));
        assert_eq!(kind("SCALAR"), Some(KernelKind::Scalar));
        for bad in ["avx512", "avx2-fma", "scalar-fma", "sse2", "neon"] {
            let err = std::panic::catch_unwind(|| kernel_from_env(Some(bad)))
                .expect_err(bad)
                .downcast::<String>()
                .unwrap();
            let want = format!("DFR_KERNEL={bad}: expected one of {}", available_names());
            assert_eq!(*err, want);
        }
    }

    #[test]
    fn with_kernel_is_what_active_returns() {
        for kern in available() {
            assert_eq!(with_kernel(kern.kind(), || active().kind()), kern.kind());
        }
    }
}
