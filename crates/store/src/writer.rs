//! A store directory opened for writing.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use endurance_obs::{Counter, Registry};
use trace_model::TraceError;

use crate::lane::{LaneWriter, StoreConfig};
use crate::segment::{list_lane, list_store_dir, LaneFiles};

/// A store directory opened for writing: the place to create lanes by
/// the thousand.
///
/// A flat directory cannot say cheaply whether a lane has files — the
/// only way to ask is to list all of it, which is what
/// [`LaneWriter::create`] does, once per lane. This handle lists the
/// directory **once**, when it opens, and from then on remembers which
/// lanes *can* have files: those the listing showed, plus every lane it
/// has handed out since. A lane outside that set has no segment,
/// sidecar, journal or temp file, so its writer is built without reading
/// the directory at all; a lane inside it — there before the handle
/// opened, or resumed after a crash or a close — gets exactly
/// [`LaneWriter::create`]'s listing and recovery. Either way the writer
/// is the same writer: the handle changes how many directory entries
/// are read, and nothing else.
///
/// What it remembers is lane ids, never file lists, and the set only
/// grows (a lane emptied by retention stays in it: its next writer lists
/// and finds nothing). The rule it rests on is `docs/FORMAT.md` §1:
/// *while a directory is open for writing, lanes are created in it only
/// through that handle*. Readers and compactors never create a lane and
/// are unaffected. A writer that breaks the rule from outside is caught
/// rather than trusted: the new lane's first append opens segment 0 with
/// `create_new`, so an existing file is [`TraceError::Io`] of kind
/// `AlreadyExists` and a poisoned writer, never an overwrite.
///
/// Share one handle between threads by reference or `Arc`;
/// [`StoreWriter::lane`] takes `&self`.
///
/// ```rust
/// use endurance_store::{StoreConfig, StoreReader, StoreWriter};
/// use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// let dir = std::env::temp_dir().join(format!("store-writer-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let store = StoreWriter::open(&dir)?; // the one listing
/// for device in 0..100u32 {
///     let mut writer = store.lane(device, StoreConfig::default())?; // no directory read
///     writer.record(&[TraceEvent::new(Timestamp::from_micros(10), EventTypeId::new(1), device)])?;
///     writer.close()?;
/// }
/// // Lane 7 can have files now: this lists, recovers and resumes it.
/// let resumed = store.lane(7, StoreConfig::default())?;
/// assert_eq!(resumed.recovery().windows, 1);
/// # drop(resumed);
/// assert_eq!(StoreReader::open(&dir)?.lane_ids().len(), 100);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    /// Lanes that can have files.
    seen: Mutex<HashSet<u32>>,
    /// `store_dir_listings_total` — directory reads this handle made.
    listings: Counter,
}

impl StoreWriter {
    /// Opens `dir` for writing, creating it if needed, and lists it once.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the directory cannot be created
    /// or listed.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TraceError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let seen = list_store_dir(&dir, None)?.lanes.into_keys().collect();
        let listings = Counter::detached();
        listings.inc();
        Ok(StoreWriter {
            dir,
            seen: Mutex::new(seen),
            listings,
        })
    }

    /// Reports `store_dir_listings_total` — the listing [`open`] took and
    /// one per [`lane`] call for a lane that could have files — into
    /// `registry`. Writers handed out are instrumented by their own
    /// [`LaneWriter::with_metrics`].
    ///
    /// [`open`]: StoreWriter::open
    /// [`lane`]: StoreWriter::lane
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        let counted = self.listings.get();
        self.listings = registry.counter("store_dir_listings_total");
        self.listings.add(counted);
        self
    }

    /// Creates (or resumes) the writer for `lane`: what
    /// [`LaneWriter::create`] returns for the same directory, lane and
    /// config, without the directory listing when this handle has never
    /// seen the lane.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LaneWriter::create`].
    pub fn lane(&self, lane: u32, config: StoreConfig) -> Result<LaneWriter, TraceError> {
        std::fs::create_dir_all(&self.dir)?;
        let first_sight = self
            .seen
            .lock()
            .expect("no panic holds the seen-lanes lock")
            .insert(lane);
        let files = if first_sight {
            LaneFiles::default()
        } else {
            self.listings.inc();
            list_lane(&self.dir, lane)?
        };
        LaneWriter::create_from(self.dir.clone(), lane, config, files)
    }
}
