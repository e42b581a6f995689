//! The crate's one lock idiom: `std::sync` locks that ride through
//! poisoning.
//!
//! Every lock in psi-core guards state that stays consistent when a
//! holder panics: jobs and grabs are accounted by the `catch_unwind`
//! boundary that caught the panic, caches hold only confirmed
//! predictions, and snapshot swaps are single assignments. A poisoned
//! lock therefore keeps serving instead of cascading one panic into
//! every later caller.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, riding through poisoning.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Take a read guard, riding through poisoning.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Take a write guard, riding through poisoning.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Consume a mutex into its value, riding through poisoning.
pub(crate) fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}
