//! The retention index: live epoch pins, the superseded files kept on
//! disk for them, each table's creation epoch, and the subscribers told
//! whenever the GC horizon is recomputed. One mutex guards the index;
//! the catalog changes `retained` and `born` only under its io write
//! lock, so a reader (under the read half) sees them agree with the
//! directory across several calls.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use super::naming;

type Hook = dyn Fn(u64) + Send + Sync;

#[derive(Debug, Default)]
pub(super) struct Retention {
    index: Mutex<Index>,
    subscribers: Mutex<Vec<Weak<Hook>>>,
}

#[derive(Debug, Default)]
struct Index {
    /// Live pin refcounts by pinned epoch; the smallest key is the GC
    /// horizon.
    pins: BTreeMap<u64, usize>,
    /// Superseded files moved into the retained namespace and not yet
    /// garbage-collected: `(live file name, supersede epoch)`.
    retained: Vec<(String, u64)>,
    /// Creation epoch per table stem (tables created by this instance):
    /// a pin older than a table's creation must not see it.
    born: HashMap<String, u64>,
}

/// Which version of a table's manifest a pinned reader sees.
pub(super) enum Version {
    /// The live `<stem>.sctb`.
    Live,
    /// The retained copy superseded at this epoch.
    Retained(u64),
    /// The table was created after the pin: invisible.
    Unborn,
}

/// A retention-horizon subscription (see
/// [`DiskCatalog::subscribe_retention`](super::DiskCatalog::subscribe_retention)).
/// Dropping it unsubscribes.
#[must_use = "dropping the subscription unsubscribes at once"]
pub struct RetentionSubscription {
    _hook: Arc<Hook>,
}

impl Retention {
    pub(super) fn pin(&self, epoch: u64) {
        *self.index.lock().pins.entry(epoch).or_insert(0) += 1;
    }

    pub(super) fn unpin(&self, epoch: u64) {
        let mut index = self.index.lock();
        if let Some(n) = index.pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                index.pins.remove(&epoch);
            }
        }
    }

    /// Whether any pin is live (superseded manifests need retaining
    /// only then).
    pub(super) fn pinned(&self) -> bool {
        !self.index.lock().pins.is_empty()
    }

    /// Records `file` as retained under supersede epoch `epoch`.
    pub(super) fn retain(&self, file: String, epoch: u64) {
        self.index.lock().retained.push((file, epoch));
    }

    /// Records that the table at `stem` was (re)created at `epoch`.
    pub(super) fn born(&self, stem: &str, epoch: u64) {
        self.index.lock().born.insert(stem.to_string(), epoch);
    }

    /// The oldest retained copy of `file` superseding epoch `pin`
    /// (`None`: the live file serves the pin).
    pub(super) fn superseding(&self, file: &str, pin: u64) -> Option<u64> {
        let index = self.index.lock();
        let retained = index.retained.iter().filter(|(f, e)| f == file && *e > pin);
        retained.map(|&(_, e)| e).min()
    }

    /// The manifest version of `stem` a reader pinned at `pin` sees.
    pub(super) fn manifest(&self, stem: &str, pin: u64) -> Version {
        let born = self.index.lock().born.get(stem).copied().unwrap_or(0);
        match self.superseding(&naming::manifest(stem), pin) {
            // A retained copy from *before* the table's (re)creation
            // belongs to the incarnation the pin saw; one from after it
            // holds post-pin state and must not resurface.
            Some(s) if born <= pin || s <= born => Version::Retained(s),
            _ if born > pin => Version::Unborn,
            _ => Version::Live,
        }
    }

    /// The GC horizon — the oldest pinned epoch, `u64::MAX` when nothing
    /// is pinned — together with the retained files it frees (supersede
    /// epoch at or below it), which leave the index.
    pub(super) fn collect(&self) -> (u64, Vec<String>) {
        let mut index = self.index.lock();
        let horizon = index.pins.keys().next().copied().unwrap_or(u64::MAX);
        let mut freed = Vec::new();
        index.retained.retain(|(file, e)| {
            if *e > horizon {
                return true;
            }
            freed.push(naming::retained_name(file, *e));
            false
        });
        (horizon, freed)
    }

    /// Takes the files retained at `epoch` — a commit that failed
    /// before it landed — out of the index, returning their live names
    /// so the commit can move them back.
    pub(super) fn forget(&self, epoch: u64) -> Vec<String> {
        let mut index = self.index.lock();
        let forgotten = index.retained.extract_if(.., |(_, e)| *e == epoch);
        forgotten.map(|(file, _)| file).collect()
    }

    pub(super) fn subscribe(
        &self,
        hook: impl Fn(u64) + Send + Sync + 'static,
    ) -> RetentionSubscription {
        let hook: Arc<Hook> = Arc::new(hook);
        self.subscribers.lock().push(Arc::downgrade(&hook));
        RetentionSubscription { _hook: hook }
    }

    /// Tells every live subscriber the retention horizon, dropping the
    /// ones whose subscription is gone.
    pub(super) fn notify(&self, horizon: u64) {
        let live: Vec<Arc<Hook>> = {
            let mut subscribers = self.subscribers.lock();
            subscribers.retain(|s| s.strong_count() > 0);
            subscribers.iter().filter_map(Weak::upgrade).collect()
        };
        for hook in live {
            hook(horizon);
        }
    }
}
