//! Per-query tickets: `Engine::submit` returns immediately with a
//! [`QueryTicket`]; the ticket resolves when the query's window fills (or is
//! drained) and the window's collective memory prediction is known.
//!
//! Every ticket of one window holds the same shared state: the window is
//! resolved once — one lock, and one `notify_all` if a thread is blocked in
//! `wait` — however many members it has.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use wmp_mlkit::{MlError, MlResult};
use wmp_plan::ResourceVector;

/// The serving verdict for one workload window, delivered to every member
/// query's ticket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDecision {
    /// Sequence number of the window this query was batched into.
    pub window_id: u64,
    /// Predicted collective resource demand of the window (memory MB /
    /// CPU ms / IO pages). Models persisted before multi-resource targets
    /// report zero on the CPU and IO axes.
    pub predicted: ResourceVector,
    /// Number of queries in the window.
    pub window_len: usize,
    /// Version of the model snapshot that scored the window (see
    /// [`learnedwmp_core::handle::ModelSnapshot::version`]) — every member
    /// of one window is scored by the same snapshot.
    pub model_version: u64,
}

impl WorkloadDecision {
    /// Predicted collective working memory of the window (MB) — the memory
    /// projection of [`WorkloadDecision::predicted`], bit-identical to the
    /// scalar prediction path.
    pub fn predicted_mb(&self) -> f64 {
        self.predicted.memory_mb
    }
}

/// The outcome slot of one window, shared by all of its tickets.
pub(crate) struct TicketState {
    slot: Mutex<Slot>,
    ready: Condvar,
}

/// What [`TicketState`]'s mutex guards.
#[derive(Default)]
struct Slot {
    result: Option<MlResult<WorkloadDecision>>,
    /// Threads blocked on `ready`. A waiter counts itself in before it
    /// sleeps and out when it wakes, both under the lock, so a resolver
    /// that reads 0 has nobody to wake and skips the `notify_all` syscall.
    waiters: usize,
}

/// Locks a ticket's slot. Every update leaves the slot valid (a result is
/// written whole; the waiter count moves by one), so a poisoned lock is
/// still usable.
fn lock(state: &TicketState) -> MutexGuard<'_, Slot> {
    state.slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TicketState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketState { slot: Mutex::new(Slot::default()), ready: Condvar::new() })
    }

    pub(crate) fn resolve(&self, result: MlResult<WorkloadDecision>) {
        let mut slot = lock(self);
        if slot.result.is_none() {
            slot.result = Some(result);
        }
        let waiters = slot.waiters;
        drop(slot);
        if waiters > 0 {
            self.ready.notify_all();
        }
    }
}

/// A pending prediction for one submitted query. Cheap to move across
/// threads; `wait` blocks until the query's window has been scored.
#[must_use = "dropping a ticket loses the only way to read this query's prediction"]
pub struct QueryTicket {
    pub(crate) seq: u64,
    pub(crate) state: Arc<TicketState>,
}

impl QueryTicket {
    /// Engine-assigned submission sequence number of this query.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// True once the window has been scored (or failed).
    pub fn is_resolved(&self) -> bool {
        lock(&self.state).result.is_some()
    }

    /// Non-blocking read of the decision, if the window has been scored.
    pub fn try_get(&self) -> Option<MlResult<WorkloadDecision>> {
        lock(&self.state).result.clone()
    }

    /// Blocks until the window is scored and returns the decision.
    ///
    /// # Errors
    /// Propagates the window's prediction error; every ticket of a failed
    /// window receives the same error.
    pub fn wait(&self) -> MlResult<WorkloadDecision> {
        let mut slot = lock(&self.state);
        loop {
            if let Some(result) = slot.result.clone() {
                return result;
            }
            slot.waiters += 1;
            slot = self.state.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);
            slot.waiters -= 1;
        }
    }

    /// [`QueryTicket::wait`] with a timeout.
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] if the window was not scored within
    /// `timeout` (the window has not filled; `Engine::drain` flushes it).
    pub fn wait_timeout(&self, timeout: Duration) -> MlResult<WorkloadDecision> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = lock(&self.state);
        loop {
            if let Some(result) = slot.result.clone() {
                return result;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(MlError::NotFitted("QueryTicket (window not yet scored)"));
            }
            slot.waiters += 1;
            let (guard, _) = self
                .state
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
            slot.waiters -= 1;
        }
    }
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("seq", &self.seq)
            .field("resolved", &self.is_resolved())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision() -> WorkloadDecision {
        WorkloadDecision {
            window_id: 3,
            predicted: ResourceVector::new(123.0, 4.5, 900.0),
            window_len: 10,
            model_version: 1,
        }
    }

    #[test]
    fn resolve_wakes_waiters_and_is_idempotent() {
        let state = TicketState::new();
        let ticket = QueryTicket { seq: 7, state: Arc::clone(&state) };
        assert!(!ticket.is_resolved());
        assert!(ticket.try_get().is_none());

        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || QueryTicket { seq: 7, state }.wait())
        };
        state.resolve(Ok(decision()));
        // A second resolution must not overwrite the first.
        state.resolve(Err(MlError::SingularMatrix));
        assert_eq!(waiter.join().unwrap().unwrap(), decision());
        assert_eq!(ticket.wait().unwrap(), decision());
        assert_eq!(ticket.seq(), 7);
    }

    #[test]
    fn wait_timeout_reports_unscored_windows() {
        let state = TicketState::new();
        let ticket = QueryTicket { seq: 0, state };
        let err = ticket.wait_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, MlError::NotFitted(_)));
        assert_eq!(lock(&ticket.state).waiters, 0, "a timed-out waiter counts itself out");
    }

    #[test]
    fn resolve_wakes_every_thread_already_asleep() {
        let state = TicketState::new();
        let sleepers: Vec<_> = (0..3)
            .map(|i| {
                let ticket = QueryTicket { seq: i, state: Arc::clone(&state) };
                std::thread::spawn(move || {
                    if i == 0 {
                        ticket.wait_timeout(Duration::from_secs(600))
                    } else {
                        ticket.wait()
                    }
                })
            })
            .collect();
        // Resolve only once all three are blocked on the condvar.
        while lock(&state).waiters < 3 {
            std::thread::yield_now();
        }
        state.resolve(Ok(decision()));
        for sleeper in sleepers {
            assert_eq!(sleeper.join().unwrap().unwrap(), decision());
        }
        assert_eq!(lock(&state).waiters, 0);
    }

    #[test]
    fn failed_windows_deliver_the_error() {
        let state = TicketState::new();
        let ticket = QueryTicket { seq: 0, state: Arc::clone(&state) };
        state.resolve(Err(MlError::SingularMatrix));
        assert_eq!(ticket.wait().unwrap_err(), MlError::SingularMatrix);
        assert!(ticket.is_resolved());
    }
}
