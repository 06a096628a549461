//! Allocation-free event payloads.
//!
//! [`Payload`] is a type-erased container with the same role the old
//! `Box<dyn Any + Send>` message type played, minus the per-event heap
//! traffic on the hot path:
//!
//! * values of at most [`INLINE_BYTES`] bytes (alignment ≤ 8) are stored
//!   **inline** — no allocation at all. This covers the network engine's
//!   per-frame events (its internal `Ev` enum, whose size a compile-time
//!   assertion in `hpsock_net::engine` holds to this bound), filter
//!   control messages and unit payloads;
//! * larger values up to [`SLOT_BYTES`] bytes (alignment ≤ 16) go into a
//!   **pooled slot** recycled through a thread-local free list, so steady
//!   state costs no allocator calls either. Every engine value that
//!   carries an application `Message` lands here — the net engine's
//!   private send command `NetCmd` (56 B), the frame-0 arrival `RxFirst`,
//!   `Delivery` — as does the DataCutter `ComputeDone`;
//! * anything bigger falls back to a plain `Box`, preserving generality.
//!
//! The layout is two words beyond the inline buffer-less minimum: a
//! 24-byte buffer holding the value itself (inline), the slot pointer
//! (pooled) or the `Box<dyn Any + Send>` (boxed), plus one static vtable
//! pointer carrying the storage kind, type id and drop glue. A whole
//! [`Payload`] is therefore 32 bytes — it travels *inside* the event
//! queue's entries rather than behind them.
//!
//! The storage class is a pure function of the payload's type, never of
//! its value, and is invisible to receivers: `downcast`/`downcast_ref`
//! behave identically across all three classes, which is what keeps the
//! simulation trace independent of storage (pinned by the
//! `digest_equivalence` tests).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::{Any, TypeId};
use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::{align_of, needs_drop, size_of, ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;

/// Largest payload stored inline (alignment up to 8).
pub const INLINE_BYTES: usize = 24;
const INLINE_WORDS: usize = INLINE_BYTES / 8;

/// Pooled-slot size; payloads up to this (alignment ≤ [`SLOT_ALIGN`]) are
/// carried in recycled slots instead of fresh boxes.
pub const SLOT_BYTES: usize = 128;
/// Pooled-slot alignment.
pub const SLOT_ALIGN: usize = 16;

/// Most free slots a thread keeps cached; beyond this they are freed.
const POOL_CAP: usize = 256;

/// How the buffer is interpreted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The value lives in the buffer.
    Inline,
    /// The buffer holds a `NonNull<u8>` to a pooled slot with the value.
    Pooled,
    /// The buffer holds a `Box<dyn Any + Send>` with the value.
    Boxed,
}

/// Erased per-type operations; one static instance per (type, kind).
struct Vt {
    kind: Kind,
    /// Type id of the contained value; takes the buffer pointer so the
    /// boxed vtable (shared across all types) can ask the box.
    type_id: fn(*const u8) -> TypeId,
    /// `drop_in_place` for the value (inline/pooled kinds); `None` when
    /// the type has no drop glue, so trivial payloads drop branch-only.
    drop: Option<unsafe fn(*mut u8)>,
}

unsafe fn drop_erased<T>(p: *mut u8) {
    std::ptr::drop_in_place(p.cast::<T>());
}

fn type_id_static<T: Any>(_buf: *const u8) -> TypeId {
    TypeId::of::<T>()
}

/// For boxed payloads the concrete type may be unknown (adopted via
/// [`Payload::from_box`]); ask the box itself.
fn type_id_boxed(buf: *const u8) -> TypeId {
    unsafe { (**buf.cast::<Box<dyn Any + Send>>()).type_id() }
}

struct InlineVt<T: 'static>(PhantomData<T>);
impl<T: Any> InlineVt<T> {
    const VT: Vt = Vt {
        kind: Kind::Inline,
        type_id: type_id_static::<T>,
        drop: if needs_drop::<T>() {
            Some(drop_erased::<T>)
        } else {
            None
        },
    };
}

struct PooledVt<T: 'static>(PhantomData<T>);
impl<T: Any> PooledVt<T> {
    const VT: Vt = Vt {
        kind: Kind::Pooled,
        type_id: type_id_static::<T>,
        drop: if needs_drop::<T>() {
            Some(drop_erased::<T>)
        } else {
            None
        },
    };
}

/// Shared by every boxed payload; the box carries its own drop glue.
static BOXED_VT: Vt = Vt {
    kind: Kind::Boxed,
    type_id: type_id_boxed,
    drop: None,
};

fn slot_layout() -> Layout {
    Layout::from_size_align(SLOT_BYTES, SLOT_ALIGN).expect("valid slot layout")
}

/// Per-thread free list of pooled slots, intrusive: a free slot's first
/// eight bytes hold the next free slot's pointer, so take/return are a
/// couple of loads and stores with no container bookkeeping.
struct Pool {
    head: Cell<Option<NonNull<u8>>>,
    len: Cell<usize>,
}

std::thread_local! {
    /// Free pooled slots for this thread. Slots migrate between threads
    /// inside payloads and come back to whichever thread drops them; the
    /// layout is fixed, so cross-thread recycling is sound. Slots still on
    /// the list at thread exit are leaked (as any thread-cached allocator
    /// free list would be); call [`trim_pool`] first to release them.
    static POOL: Pool = const {
        Pool {
            head: Cell::new(None),
            len: Cell::new(0),
        }
    };
}

fn alloc_slot() -> NonNull<u8> {
    let layout = slot_layout();
    let ptr = unsafe { alloc(layout) };
    NonNull::new(ptr).unwrap_or_else(|| handle_alloc_error(layout))
}

fn pool_take() -> NonNull<u8> {
    POOL.try_with(|p| match p.head.get() {
        Some(slot) => {
            let next = unsafe { slot.as_ptr().cast::<Option<NonNull<u8>>>().read() };
            p.head.set(next);
            p.len.set(p.len.get() - 1);
            Some(slot)
        }
        None => None,
    })
    .ok()
    .flatten()
    .unwrap_or_else(alloc_slot)
}

fn pool_return(ptr: NonNull<u8>) {
    let kept = POOL
        .try_with(|p| {
            if p.len.get() < POOL_CAP {
                unsafe {
                    ptr.as_ptr()
                        .cast::<Option<NonNull<u8>>>()
                        .write(p.head.get())
                };
                p.head.set(Some(ptr));
                p.len.set(p.len.get() + 1);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if !kept {
        unsafe { dealloc(ptr.as_ptr(), slot_layout()) };
    }
}

/// Number of free pooled slots cached by this thread.
pub fn pooled_free_slots() -> usize {
    POOL.try_with(|p| p.len.get()).unwrap_or(0)
}

/// Free every pooled slot cached by this thread.
pub fn trim_pool() {
    let _ = POOL.try_with(|p| {
        while let Some(slot) = p.head.get() {
            let next = unsafe { slot.as_ptr().cast::<Option<NonNull<u8>>>().read() };
            unsafe { dealloc(slot.as_ptr(), slot_layout()) };
            p.head.set(next);
        }
        p.len.set(0);
    });
}

/// A type-erased, `Send` message payload (see module docs).
pub struct Payload {
    buf: [MaybeUninit<u64>; INLINE_WORDS],
    vt: &'static Vt,
    /// `Payload` must be `Send` but not `Sync` (like `Box<dyn Any + Send>`:
    /// the value is `Send`, nothing promises it is `Sync`).
    _marker: PhantomData<Box<dyn Any + Send>>,
}

// Sound: every constructor requires the contained value be `Send`, and a
// pooled slot's dealloc path is thread-independent (fixed layout).
// `buf` may conceal raw pointers, but ownership always moves with the
// payload. The PhantomData keeps the auto-!Sync of the old box type.
unsafe impl Send for Payload {}

/// Which storage class a payload landed in; exposed for tests and the
/// digest-equivalence suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Stored in the event itself.
    Inline,
    /// Stored in a recycled pool slot.
    Pooled,
    /// Stored in a dedicated heap allocation.
    Boxed,
}

impl Payload {
    #[inline]
    fn from_parts<S>(value: S, vt: &'static Vt) -> Payload {
        debug_assert!(size_of::<S>() <= INLINE_BYTES && align_of::<S>() <= 8);
        let mut buf = [MaybeUninit::<u64>::uninit(); INLINE_WORDS];
        unsafe { buf.as_mut_ptr().cast::<S>().write(value) };
        Payload {
            buf,
            vt,
            _marker: PhantomData,
        }
    }

    /// Wrap `value`, choosing inline, pooled or boxed storage by its size
    /// and alignment.
    #[inline]
    pub fn new<T: Any + Send>(value: T) -> Payload {
        if size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= 8 {
            Payload::from_parts(value, &InlineVt::<T>::VT)
        } else if size_of::<T>() <= SLOT_BYTES && align_of::<T>() <= SLOT_ALIGN {
            let ptr = pool_take();
            unsafe { ptr.as_ptr().cast::<T>().write(value) };
            Payload::from_parts(ptr, &PooledVt::<T>::VT)
        } else {
            Payload::boxed(value)
        }
    }

    /// Wrap `value` in boxed storage unconditionally. Receivers cannot
    /// tell the difference; used by the digest-equivalence tests to prove
    /// storage class never affects a run.
    pub fn boxed<T: Any + Send>(value: T) -> Payload {
        Payload::from_box(Box::new(value))
    }

    /// Adopt an already-boxed payload without re-wrapping.
    pub fn from_box(value: Box<dyn Any + Send>) -> Payload {
        Payload::from_parts(value, &BOXED_VT)
    }

    /// The storage class this payload landed in.
    pub fn storage(&self) -> Storage {
        match self.vt.kind {
            Kind::Inline => Storage::Inline,
            Kind::Pooled => Storage::Pooled,
            Kind::Boxed => Storage::Boxed,
        }
    }

    #[inline]
    fn buf_ptr(&self) -> *const u8 {
        self.buf.as_ptr().cast()
    }

    /// `TypeId` of the contained value.
    #[inline]
    pub fn type_id_of(&self) -> TypeId {
        (self.vt.type_id)(self.buf_ptr())
    }

    /// Whether the contained value is a `T`.
    #[inline]
    pub fn is<T: Any>(&self) -> bool {
        // Vtable identity is conclusive when it matches (each vtable's
        // type_id fn pins its type); fall back to the dynamic check since
        // promoted statics may be duplicated across codegen units.
        std::ptr::eq(self.vt, &InlineVt::<T>::VT)
            || std::ptr::eq(self.vt, &PooledVt::<T>::VT)
            || self.type_id_of() == TypeId::of::<T>()
    }

    /// Take the value out as a `T`, or give the payload back on mismatch.
    #[inline]
    pub fn downcast<T: Any>(self) -> Result<T, Payload> {
        if !self.is::<T>() {
            return Err(self);
        }
        // The value is moved out manually below; suppress this wrapper's
        // own drop so it is not dropped twice.
        let this = ManuallyDrop::new(self);
        unsafe {
            match this.vt.kind {
                Kind::Inline => Ok(this.buf.as_ptr().cast::<T>().read()),
                Kind::Pooled => {
                    let slot = this.buf.as_ptr().cast::<NonNull<u8>>().read();
                    let value = slot.as_ptr().cast::<T>().read();
                    pool_return(slot);
                    Ok(value)
                }
                Kind::Boxed => {
                    let b = this.buf.as_ptr().cast::<Box<dyn Any + Send>>().read();
                    Ok(*b.downcast::<T>().expect("type id checked"))
                }
            }
        }
    }

    /// Borrow the value as a `T`, if it is one.
    #[inline]
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        if !self.is::<T>() {
            return None;
        }
        unsafe {
            Some(match self.vt.kind {
                Kind::Inline => &*self.buf.as_ptr().cast::<T>(),
                Kind::Pooled => {
                    let slot = self.buf.as_ptr().cast::<NonNull<u8>>().read();
                    &*slot.as_ptr().cast::<T>()
                }
                Kind::Boxed => (*self.buf.as_ptr().cast::<Box<dyn Any + Send>>())
                    .downcast_ref::<T>()
                    .expect("type id checked"),
            })
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        let p = self.buf.as_mut_ptr().cast::<u8>();
        match self.vt.kind {
            Kind::Inline => {
                if let Some(f) = self.vt.drop {
                    unsafe { f(p) };
                }
            }
            Kind::Pooled => unsafe {
                let slot = self.buf.as_ptr().cast::<NonNull<u8>>().read();
                if let Some(f) = self.vt.drop {
                    f(slot.as_ptr());
                }
                pool_return(slot);
            },
            Kind::Boxed => unsafe {
                drop(self.buf.as_ptr().cast::<Box<dyn Any + Send>>().read());
            },
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({:?})", self.storage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn payload_is_two_words_plus_buffer() {
        assert_eq!(size_of::<Payload>(), INLINE_BYTES + size_of::<usize>());
    }

    #[test]
    fn small_values_are_inline() {
        let p = Payload::new(7u32);
        assert_eq!(p.storage(), Storage::Inline);
        assert!(p.is::<u32>());
        assert_eq!(p.downcast_ref::<u32>(), Some(&7));
        assert_eq!(p.downcast::<u32>().unwrap(), 7);
    }

    #[test]
    fn zero_sized_values_are_inline() {
        let p = Payload::new(());
        assert_eq!(p.storage(), Storage::Inline);
        p.downcast::<()>().unwrap();
    }

    #[test]
    fn exactly_inline_bytes_is_inline() {
        let p = Payload::new([0u64; INLINE_WORDS]);
        assert_eq!(p.storage(), Storage::Inline);
    }

    #[test]
    fn mid_size_values_are_pooled() {
        let v = [1u64; 6]; // 48 bytes: too big inline, fits a slot
        let p = Payload::new(v);
        assert_eq!(p.storage(), Storage::Pooled);
        assert_eq!(p.downcast_ref::<[u64; 6]>(), Some(&v));
        assert_eq!(p.downcast::<[u64; 6]>().unwrap(), v);
    }

    #[test]
    fn oversized_values_are_boxed() {
        let v = [2u64; 64]; // 512 bytes
        let p = Payload::new(v);
        assert_eq!(p.storage(), Storage::Boxed);
        assert_eq!(p.downcast::<[u64; 64]>().unwrap()[63], 2);
    }

    #[test]
    fn overaligned_values_are_boxed() {
        #[repr(align(64))]
        #[derive(PartialEq, Debug)]
        struct Aligned(u8);
        let p = Payload::new(Aligned(9));
        assert_eq!(p.storage(), Storage::Boxed);
        assert_eq!(p.downcast_ref::<Aligned>(), Some(&Aligned(9)));
        assert_eq!(p.downcast::<Aligned>().unwrap(), Aligned(9));
    }

    #[test]
    fn mismatched_downcast_returns_payload() {
        let p = Payload::new(1u8);
        let p = p.downcast::<u16>().unwrap_err();
        assert_eq!(p.downcast_ref::<u16>(), None);
        assert_eq!(p.downcast::<u8>().unwrap(), 1);
    }

    #[test]
    fn pool_recycles_slots() {
        trim_pool();
        assert_eq!(pooled_free_slots(), 0);
        drop(Payload::new([0u64; 6]));
        assert_eq!(pooled_free_slots(), 1);
        // The next pooled payload reuses the cached slot.
        let p = Payload::new([1u64; 6]);
        assert_eq!(pooled_free_slots(), 0);
        // downcast (move out) also returns the slot.
        let _ = p.downcast::<[u64; 6]>().unwrap();
        assert_eq!(pooled_free_slots(), 1);
        trim_pool();
        assert_eq!(pooled_free_slots(), 0);
    }

    /// Every storage class must run the contained value's destructor
    /// exactly once, on drop and never on `downcast`-by-value.
    #[test]
    fn drops_run_exactly_once() {
        struct Counted<const N: usize> {
            hits: Arc<AtomicUsize>,
            _pad: [u64; N],
        }
        impl<const N: usize> Drop for Counted<N> {
            fn drop(&mut self) {
                self.hits.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn check<const N: usize>(expect: Storage) {
            let hits = Arc::new(AtomicUsize::new(0));
            let p = Payload::new(Counted::<N> {
                hits: Arc::clone(&hits),
                _pad: [0; N],
            });
            assert_eq!(p.storage(), expect);
            drop(p);
            assert_eq!(hits.load(Ordering::SeqCst), 1, "dropped payload");

            let p = Payload::new(Counted::<N> {
                hits: Arc::clone(&hits),
                _pad: [0; N],
            });
            let v = p.downcast::<Counted<N>>().unwrap();
            assert_eq!(hits.load(Ordering::SeqCst), 1, "moved out, not dropped");
            drop(v);
            assert_eq!(hits.load(Ordering::SeqCst), 2, "moved value drops once");
        }

        check::<1>(Storage::Inline);
        check::<8>(Storage::Pooled);
        check::<40>(Storage::Boxed);
    }

    #[test]
    fn payload_is_send_not_sync() {
        fn assert_send<T: Send>() {}
        assert_send::<Payload>();
        // (Sync is intentionally absent, like Box<dyn Any + Send>: a Send
        // value need not be Sync, so &Payload must not cross threads.)
        // A pooled payload may be dropped on another thread; its slot
        // joins that thread's pool.
        let p = Payload::new([3u64; 6]);
        std::thread::spawn(move || {
            assert_eq!(p.downcast_ref::<[u64; 6]>(), Some(&[3u64; 6]));
            drop(p);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn forced_boxed_storage_is_indistinguishable() {
        let a = Payload::new(11u64);
        let b = Payload::boxed(11u64);
        assert_eq!(a.storage(), Storage::Inline);
        assert_eq!(b.storage(), Storage::Boxed);
        assert!(b.is::<u64>());
        assert_eq!(a.downcast::<u64>().unwrap(), b.downcast::<u64>().unwrap());
    }

    #[test]
    fn from_box_adopts_without_rewrap() {
        let b: Box<dyn Any + Send> = Box::new(5u16);
        let p = Payload::from_box(b);
        assert_eq!(p.storage(), Storage::Boxed);
        assert_eq!(p.downcast_ref::<u16>(), Some(&5));
        assert_eq!(p.downcast::<u16>().unwrap(), 5);
    }
}
