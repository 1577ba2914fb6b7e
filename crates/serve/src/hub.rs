//! Registry of live lane writers' commit logs.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
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
    /// Registers `log` as the lane's current writer, superseding any
    /// earlier registration, and wakes followers waiting for the lane.
    pub fn register(&self, log: CommitLog) {
        let mut state = self.state.lock().expect("hub poisoned");
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
        self.state
            .lock()
            .expect("hub poisoned")
            .lanes
            .get(&lane)
            .cloned()
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
        let mut state = self.state.lock().expect("hub poisoned");
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
                .expect("hub poisoned")
                .0;
        }
    }
}
