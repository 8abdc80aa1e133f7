//! Chaos hook shims — the only place `qrank_chaos` is referenced.
//!
//! With the `chaos` cargo feature enabled, [`chaos_fail`] consults the
//! process-global fault plan; without it both functions compile to
//! constants the optimizer deletes, so default builds carry zero
//! injection branches (CI greps enforce that `qrank_chaos` appears
//! nowhere else in this crate).

/// Should the instrumented site fail with an injected error (or panic
/// or stall, which happen inside the hook)?
///
/// Sites: `refresh.ingest` (before the write-ahead append, so an
/// injected failure is a clean no-op on engine state) and
/// `serve.score` (delay rules model a slow store on the read path).
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn chaos_fail(site: &'static str) -> bool {
    qrank_chaos::should_fail(site)
}

/// Chaos feature disabled: never fails, compiles to nothing.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn chaos_fail(_site: &'static str) -> bool {
    false
}
