//! A counting global allocator. It counts allocations only while
//! [`start`] has switched it on (the traced run), and attributes each one
//! to the allocating thread's role: driver threads mark themselves with
//! [`mark_driver`]; every other thread of the process (reactors, accept,
//! WAL flusher) counts as server.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static DRIVER: AtomicU64 = AtomicU64::new(0);
static OTHER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IS_DRIVER: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ON.load(Ordering::Relaxed) {
        // `try_with` because the allocator also runs while thread-locals
        // are being torn down.
        let driver = IS_DRIVER.try_with(Cell::get).unwrap_or(false);
        if driver {
            DRIVER.fetch_add(1, Ordering::Relaxed);
        } else {
            OTHER.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and a const-initialised
// thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Marks the calling thread as a load-driver thread.
pub fn mark_driver() {
    IS_DRIVER.with(|d| d.set(true));
}

/// Zeroes the counters and starts counting.
pub fn start() {
    DRIVER.store(0, Ordering::Relaxed);
    OTHER.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Stops counting and returns `(driver, server)` allocation counts.
pub fn stop() -> (u64, u64) {
    ON.store(false, Ordering::Relaxed);
    (
        DRIVER.load(Ordering::Relaxed),
        OTHER.load(Ordering::Relaxed),
    )
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Returns freed heap memory to the OS, so each trial's peak RSS starts
/// from what is live rather than from what earlier trials left in the
/// allocator's free lists.
pub fn trim() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // that glibc's allocator holds free; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}
