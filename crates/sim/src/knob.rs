//! Run settings: every `HPSOCK_*` environment variable is one [`Knob`],
//! a `static` declared once in the crate that owns its value type.
//!
//! [`Knob::get`] returns the innermost override scoped on this thread by
//! [`Knob::with`], else the environment variable parsed strictly (an
//! invalid value aborts with a message naming the variable, never a
//! silent default), else the default. Tests and library code scope
//! overrides instead of calling `std::env::set_var`, which is undefined
//! behaviour on glibc while other threads call `getenv`. Overrides live
//! on one type-erased per-thread stack, so a thread pool forwards every
//! knob at once: [`capture`] on the submitting thread, [`Scope::enter`]
//! in each worker. Popped boxes are reused, so a scope allocates nothing
//! once the thread has warmed up.

use std::any::Any;
use std::cell::RefCell;
use std::path::{Path, PathBuf};

/// One setting: an environment variable name, a strict parser for its
/// value and the value used when neither an override nor the variable is
/// set.
pub struct Knob<T: 'static> {
    /// The environment variable behind this knob.
    pub name: &'static str,
    parse: fn(&str) -> Result<T, String>,
    default: fn() -> T,
}

impl<T: Clone + Send + Sync + 'static> Knob<T> {
    /// Declare a knob; meant for `static` items.
    pub const fn new(
        name: &'static str,
        parse: fn(&str) -> Result<T, String>,
        default: fn() -> T,
    ) -> Self {
        Knob {
            name,
            parse,
            default,
        }
    }

    /// The innermost override scoped on this thread, else the environment
    /// variable, else the default. An invalid environment value panics
    /// with the parser's message, which names the variable.
    #[track_caller]
    pub fn get(&'static self) -> T {
        if let Some(v) = self.scoped() {
            return v;
        }
        match std::env::var_os(self.name) {
            Some(raw) => match self.resolve(&raw.to_string_lossy()) {
                Ok(v) => v,
                Err(e) => panic!("{e}"),
            },
            None => (self.default)(),
        }
    }

    /// Parse `raw` as if it were the environment variable's value.
    pub fn resolve(&self, raw: &str) -> Result<T, String> {
        (self.parse)(raw)
    }

    /// Run `f` with [`Knob::get`] returning `value` on this thread; the
    /// previous value is restored afterwards, including on unwind.
    pub fn with<R>(&'static self, value: T, f: impl FnOnce() -> R) -> R {
        let _restore = Restore::here();
        let reused = SPARE.with(|s| {
            let mut s = s.borrow_mut();
            let i = s.iter().position(|b| b.is::<Option<T>>())?;
            Some(s.swap_remove(i))
        });
        let boxed: Value = match reused {
            Some(mut b) => {
                *b.downcast_mut().expect("type checked") = Some(value);
                b
            }
            None => Box::new(Some(value)),
        };
        LIVE.with(|l| {
            l.borrow_mut().push(Entry {
                knob: self,
                value: boxed,
            })
        });
        f()
    }

    fn scoped(&'static self) -> Option<T> {
        LIVE.with(|l| {
            let l = l.borrow();
            let entry = l.iter().rev().find(|e| e.is(self))?;
            entry.value.downcast_ref::<Option<T>>()?.clone()
        })
    }
}

type Value = Box<dyn Any + Send + Sync>;

/// One override: its knob and its value, boxed as `Option<T>` so that a
/// popped box can be emptied and reused.
struct Entry {
    knob: &'static dyn Slot,
    value: Value,
}

impl Entry {
    fn is<T: 'static>(&self, knob: &Knob<T>) -> bool {
        let this: *const dyn Slot = self.knob;
        std::ptr::eq(this.cast::<()>(), (knob as *const Knob<T>).cast())
    }
}

impl Clone for Entry {
    fn clone(&self) -> Entry {
        self.knob.clone_entry(&self.value)
    }
}

/// What the stack needs from a knob whose value type it does not know.
trait Slot: Sync {
    fn clone_entry(&'static self, value: &Value) -> Entry;
    fn clear(&self, value: &mut Value);
}

impl<T: Clone + Send + Sync + 'static> Slot for Knob<T> {
    fn clone_entry(&'static self, value: &Value) -> Entry {
        let v = value.downcast_ref::<Option<T>>().cloned().flatten();
        Entry {
            knob: self,
            value: Box::new(v),
        }
    }

    fn clear(&self, value: &mut Value) {
        if let Some(v) = value.downcast_mut::<Option<T>>() {
            *v = None;
        }
    }
}

thread_local! {
    /// This thread's overrides, innermost last.
    static LIVE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    /// Emptied boxes of popped overrides.
    static SPARE: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// Pops, on drop, every override pushed after it was made.
struct Restore(usize);

impl Restore {
    fn here() -> Restore {
        Restore(LIVE.with(|l| l.borrow().len()))
    }
}

impl Drop for Restore {
    fn drop(&mut self) {
        LIVE.with(|l| {
            SPARE.with(|s| {
                let (mut l, mut s) = (l.borrow_mut(), s.borrow_mut());
                let from = self.0.min(l.len());
                for Entry { knob, mut value } in l.drain(from..) {
                    knob.clear(&mut value);
                    s.push(value);
                }
            })
        });
    }
}

/// A snapshot of one thread's overrides, for re-installing in another.
pub struct Scope(Vec<Entry>);

/// Snapshot the overrides scoped on this thread.
pub fn capture() -> Scope {
    Scope(LIVE.with(|l| l.borrow().clone()))
}

impl Scope {
    /// Run `f` on this thread under the captured overrides, on top of any
    /// already scoped here; they are removed afterwards, including on
    /// unwind.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = Restore::here();
        LIVE.with(|l| l.borrow_mut().extend(self.0.iter().cloned()));
        f()
    }
}

/// Strictly parse a positive count: zero, negative and non-numeric
/// values are errors naming `var`; `unset` tells what unsetting gives.
pub fn parse_count(var: &str, unset: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("{var} must be >= 1, got 0 ({unset})")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{var} must be a positive integer, got {raw:?}")),
    }
}

/// Strictly parse a `0`/`1` flag; anything else is an error naming `var`,
/// with `on` saying what `1` does.
pub fn parse_flag(var: &str, on: &str, raw: &str) -> Result<bool, String> {
    match raw.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{var} must be 0 or 1, got {raw:?} ({on})")),
    }
}

/// Strictly parse an output directory: any non-empty path (trimmed); an
/// empty or all-whitespace value is an error naming `var`.
pub fn parse_dir(var: &str, unset: &str, raw: &str) -> Result<PathBuf, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(format!(
            "{var} must name an output directory, got {raw:?} ({unset})"
        ));
    }
    Ok(PathBuf::from(trimmed))
}

/// Create `dir` and any missing parents. The error names the setting
/// `var` that chose the path, and `what` the directory is for.
pub fn ensure_dir(var: &str, what: &str, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| {
        format!(
            "{var}={}: cannot create the {what} directory: {e}",
            dir.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    static COUNT: Knob<usize> = Knob::new(
        "HPSOCK_KNOB_TEST_COUNT",
        |raw| parse_count("HPSOCK_KNOB_TEST_COUNT", "unset it", raw),
        || 1,
    );
    static DIR: Knob<Option<PathBuf>> = Knob::new(
        "HPSOCK_KNOB_TEST_DIR",
        |raw| parse_dir("HPSOCK_KNOB_TEST_DIR", "unset it", raw).map(Some),
        || None,
    );

    fn depth() -> usize {
        LIVE.with(|l| l.borrow().len())
    }

    #[test]
    fn overrides_nest_and_restore_after_scope_and_panic() {
        assert_eq!(COUNT.get(), 1, "default");
        let got = COUNT.with(3, || {
            assert_eq!(COUNT.get(), 3);
            let inner = DIR.with(Some("a".into()), || {
                COUNT.with(2, || (COUNT.get(), DIR.get()))
            });
            assert_eq!(COUNT.get(), 3, "inner scope restored");
            assert_eq!(DIR.get(), None);
            inner
        });
        assert_eq!(got, (2, Some(PathBuf::from("a"))), "innermost wins");
        assert_eq!((COUNT.get(), depth()), (1, 0), "restored after the scope");
        let r = std::panic::catch_unwind(|| COUNT.with(5, || DIR.with(None, || panic!("boom"))));
        assert!(r.is_err());
        assert_eq!((COUNT.get(), depth()), (1, 0), "restored after a panic");
    }

    #[test]
    fn captured_scope_reaches_another_thread() {
        let scope = COUNT.with(4, || DIR.with(Some("d".into()), capture));
        assert_eq!(COUNT.get(), 1, "capture does not leak into the caller");
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                let inside = scope.enter(|| (COUNT.get(), DIR.get()));
                (inside, COUNT.get(), depth())
            })
            .join()
            .expect("worker ran")
        });
        assert_eq!(seen, ((4, Some(PathBuf::from("d"))), 1, 0));
    }

    #[test]
    fn popped_boxes_are_reused() {
        let spares = || SPARE.with(|s| s.borrow().len());
        COUNT.with(7, || DIR.with(None, || ()));
        let warm = spares();
        for n in 0..100 {
            COUNT.with(n + 1, || DIR.with(Some("d".into()), || ()));
        }
        assert_eq!(spares(), warm, "no new box after warm-up");
    }

    #[test]
    fn shared_parsers_are_strict() {
        assert_eq!(parse_count("V", "u", " 4 "), Ok(4));
        assert_eq!(
            parse_count("V", "unset it", "0"),
            Err("V must be >= 1, got 0 (unset it)".into())
        );
        assert_eq!(
            parse_count("V", "u", "-1"),
            Err("V must be a positive integer, got \"-1\"".into())
        );
        assert_eq!(parse_flag("V", "on", " 1 "), Ok(true));
        assert_eq!(
            parse_flag("V", "on", "yes"),
            Err("V must be 0 or 1, got \"yes\" (on)".into())
        );
        assert_eq!(parse_dir("V", "u", " d "), Ok(PathBuf::from("d")));
        assert_eq!(
            parse_dir("V", "unset it", " "),
            Err("V must name an output directory, got \" \" (unset it)".into())
        );
        assert_eq!(COUNT.resolve("9"), Ok(9));
        assert!(COUNT.resolve("x").unwrap_err().contains(COUNT.name));
    }
}
