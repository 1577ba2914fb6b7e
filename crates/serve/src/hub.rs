//! Registry of live lane writers' commit logs.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use endurance_store::CommitLog;

/// One registered commit log with its registration generation: every
/// registration (initial create or a resume after a crash) gets a fresh,
/// strictly increasing generation, so followers can tell "the writer I
/// was draining closed" from "a new writer took over the lane".
#[derive(Debug, Clone)]
pub(crate) struct Registration {
    pub log: CommitLog,
    pub generation: u64,
}

/// The handle-wide registry: lane → latest commit log.
#[derive(Debug, Default)]
pub(crate) struct Hub {
    state: Mutex<HubState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct HubState {
    lanes: HashMap<u32, Registration>,
    next_generation: u64,
}

impl Hub {
    /// Locks the registry. A thread that panicked holding it left it
    /// whole: a registration is one insert, after its generation is
    /// taken, so the next one is still strictly newer.
    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `log` as the lane's current writer, superseding any
    /// earlier registration, and wakes followers waiting for the lane.
    pub fn register(&self, log: CommitLog) {
        let mut state = self.lock();
        state.next_generation += 1;
        let generation = state.next_generation;
        state
            .lanes
            .insert(log.lane(), Registration { log, generation });
        drop(state);
        self.changed.notify_all();
    }

    /// The lane's current registration, if any writer has registered.
    pub fn current(&self, lane: u32) -> Option<Registration> {
        self.lock().lanes.get(&lane).cloned()
    }

    /// Blocks until the lane has a registration with a generation newer
    /// than `seen` (`None` = any registration) or `timeout` elapses.
    pub fn wait_newer(
        &self,
        lane: u32,
        seen: Option<u64>,
        timeout: Duration,
    ) -> Option<Registration> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if let Some(reg) = state.lanes.get(&lane) {
                if seen.map_or(true, |g| reg.generation > g) {
                    return Some(reg.clone());
                }
            }
            // Past the deadline the check above has just run once more.
            let remaining = deadline.checked_duration_since(Instant::now())?;
            state = self
                .changed
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use endurance_store::{StoreConfig, StoreWriter};

    #[test]
    fn a_panic_holding_the_hub_leaves_it_serving() {
        let dir = std::env::temp_dir().join(format!("endurance-hub-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreWriter::open(&dir).unwrap();
        let hub = Hub::default();
        let first = store.lane(0, StoreConfig::default()).unwrap();
        hub.register(first.commit_log());
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _state = hub.state.lock();
                panic!("a thread panics holding the hub");
            });
            assert!(holder.join().is_err());
        });
        assert_eq!(hub.current(0).map(|reg| reg.generation), Some(1));
        first.close().unwrap();
        let second = store.lane(0, StoreConfig::default()).unwrap();
        hub.register(second.commit_log());
        let newer = hub.wait_newer(0, Some(1), Duration::ZERO);
        assert_eq!(newer.map(|reg| reg.generation), Some(2));
        second.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
