//! Poison-tolerant lock acquisition for the serving hot paths.
//!
//! `std` mutexes poison when a holder panics, and `lock().unwrap()` turns
//! that one panic into a cascade: every later acquisition panics too, so a
//! single crashed batch bricks the session, the intake queue, or the whole
//! server. None of the state these locks guard is left unrecoverable by an
//! unwinding holder — counters and sample rings tolerate a lost update,
//! queues are drained defensively, and frame memos are caches that can be
//! rebuilt from scratch — so the right recovery is to take the guard and
//! keep serving, not to propagate the panic.
//!
//! Call sites whose guarded state *does* need repair on poison (the
//! per-layer [`FrameMemo`](phi_core::FrameMemo)s, which a half-written
//! update could leave internally inconsistent) handle the `PoisonError`
//! explicitly instead of using these helpers.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_locks_still_yield_guards() {
        let mutex = Arc::new(Mutex::new(7u32));
        let m = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _a = m.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7);
        *lock(&mutex) = 10;
        assert_eq!(*lock(&mutex), 10);
    }
}
