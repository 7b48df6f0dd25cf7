//! The two pieces every workspace knob (`DFR_THREADS`, `DFR_KERNEL`,
//! `DFR_SOLVER`) is built from (`DESIGN.md` §8).
//!
//! * [`scoped`] installs a per-thread override in a
//!   `thread_local!` `Cell<Option<T>>` slot for the duration of a closure
//!   and restores the previous value on drop — also when the closure
//!   unwinds, because property harnesses catch panics and keep running on
//!   the same thread.
//! * [`parse_env`] turns the raw value of an environment variable into a
//!   setting: unset or blank means "not set", a value the knob's parser
//!   accepts is the setting, and anything else panics with the variable's
//!   name and the accepted values — a differential-CI override must never
//!   silently fall back. It is pure (the caller reads the variable), so
//!   each knob's parsing is unit-testable; each knob reads its variable
//!   once, in a `OnceLock`.
//!
//! # Example
//!
//! ```
//! use std::cell::Cell;
//!
//! thread_local! {
//!     static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
//! }
//!
//! let inside = dfr_pool::knob::scoped(&WIDTH, 4, || WIDTH.with(Cell::get));
//! assert_eq!(inside, Some(4));
//! assert_eq!(WIDTH.with(Cell::get), None);
//!
//! let parse = |s: &str| s.parse::<usize>().ok();
//! assert_eq!(dfr_pool::knob::parse_env("WIDTH", Some(" 4 "), parse, "a number"), Some(4));
//! assert_eq!(dfr_pool::knob::parse_env("WIDTH", Some(""), parse, "a number"), None);
//! ```

use std::cell::Cell;
use std::thread::LocalKey;

/// Runs `f` with this thread's `slot` set to `Some(value)`, restoring the
/// previous content afterwards, even if `f` unwinds. Overrides nest; other
/// threads never see them.
pub fn scoped<T: Copy + 'static, R>(
    slot: &'static LocalKey<Cell<Option<T>>>,
    value: T,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore<T: Copy + 'static> {
        slot: &'static LocalKey<Cell<Option<T>>>,
        prev: Option<T>,
    }
    impl<T: Copy + 'static> Drop for Restore<T> {
        fn drop(&mut self) {
            self.slot.with(|c| c.set(self.prev));
        }
    }
    let prev = slot.with(|c| c.replace(Some(value)));
    let _restore = Restore { slot, prev };
    f()
}

/// Parses the raw value of environment variable `name`: `None` when unset
/// or blank, otherwise `parse` of the trimmed value.
///
/// # Panics
///
/// Panics, naming `name` and `accepted`, when `parse` rejects a non-blank
/// value.
pub fn parse_env<T>(
    name: &str,
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Option<T>,
    accepted: &str,
) -> Option<T> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    Some(parse(v).unwrap_or_else(|| panic!("{name}={v}: expected {accepted}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static SLOT: Cell<Option<u32>> = const { Cell::new(None) };
    }

    fn get() -> Option<u32> {
        SLOT.with(Cell::get)
    }

    #[test]
    fn scoped_nests_restores_on_unwind_and_stays_per_thread() {
        assert_eq!(get(), None);
        scoped(&SLOT, 1, || {
            assert_eq!(get(), Some(1));
            scoped(&SLOT, 2, || assert_eq!(get(), Some(2)));
            assert_eq!(get(), Some(1));

            let unwound = std::panic::catch_unwind(|| scoped(&SLOT, 3, || panic!("boom")));
            assert!(unwound.is_err());
            assert_eq!(get(), Some(1));

            // Another thread sees its own (empty) slot, and its override
            // never leaks back here.
            let other = std::thread::spawn(|| (get(), scoped(&SLOT, 4, get)))
                .join()
                .unwrap();
            assert_eq!(other, (None, Some(4)));
            assert_eq!(get(), Some(1));
        });
        assert_eq!(get(), None);
    }

    #[test]
    fn parse_env_unset_blank_and_trimmed() {
        let parse = |s: &str| (s == "on").then_some(true);
        assert_eq!(parse_env("K", None, parse, "on"), None);
        assert_eq!(parse_env("K", Some(""), parse, "on"), None);
        assert_eq!(parse_env("K", Some("  "), parse, "on"), None);
        assert_eq!(parse_env("K", Some(" on\n"), parse, "on"), Some(true));
    }

    #[test]
    #[should_panic(expected = "K=off: expected on")]
    fn parse_env_panics_with_name_and_accepted_values() {
        parse_env("K", Some(" off "), |s| (s == "on").then_some(()), "on");
    }
}
