//! Version chains: the heart of the multi-version store.

use crate::row::Row;
use sicost_common::{Ts, TxnId};

/// Payload of one committed version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionKind {
    /// A live row image. Identity writes ("promotion", §II-C of the paper)
    /// install a `Data` version whose image equals its predecessor — the
    /// version stamp is what matters for concurrency control.
    Data(Row),
    /// A deletion tombstone.
    Tombstone,
}

/// One committed version of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp: visible to snapshots with `snap >= ts`.
    pub ts: Ts,
    /// The transaction that created this version (provenance for the MVSG
    /// serializability certifier).
    pub writer: TxnId,
    /// Row image or tombstone.
    pub kind: VersionKind,
}

impl Version {
    /// Convenience constructor for a data version.
    pub fn data(ts: Ts, writer: TxnId, row: Row) -> Self {
        Self {
            ts,
            writer,
            kind: VersionKind::Data(row),
        }
    }

    /// Convenience constructor for a tombstone.
    pub fn tombstone(ts: Ts, writer: TxnId) -> Self {
        Self {
            ts,
            writer,
            kind: VersionKind::Tombstone,
        }
    }

    /// The row image, if this version is live data.
    pub fn row(&self) -> Option<&Row> {
        match &self.kind {
            VersionKind::Data(r) => Some(r),
            VersionKind::Tombstone => None,
        }
    }
}

/// The committed versions of one record, ordered by ascending commit
/// timestamp. Uncommitted data never appears here: transactions buffer
/// writes privately and the engine installs them at commit, so every entry
/// is immediately visible to (only) the snapshots it should be.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Newest version visible at snapshot `snap` (newest `ts <= snap`).
    /// Scans from the tail because readers overwhelmingly want recent
    /// versions.
    pub fn visible(&self, snap: Ts) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.ts <= snap)
    }

    /// The newest committed version regardless of snapshot.
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Commit timestamp of the newest version.
    pub fn latest_ts(&self) -> Option<Ts> {
        self.versions.last().map(|v| v.ts)
    }

    /// Appends a committed version.
    ///
    /// # Panics
    /// Panics if `v.ts` does not exceed the current latest timestamp —
    /// installation order must follow commit order (the engine's commit
    /// critical section guarantees this).
    pub fn install(&mut self, v: Version) {
        if let Some(last) = self.versions.last() {
            assert!(
                v.ts > last.ts,
                "version install out of commit order: {} after {}",
                v.ts,
                last.ts
            );
        }
        self.versions.push(v);
    }

    /// Number of versions strictly older than the *anchor* — the newest
    /// version with `ts <= horizon`, the oldest one a snapshot at or after
    /// `horizon` can still read. The anchor is found from the tail, so the
    /// cost is the number of versions above the horizon, not the chain
    /// length.
    fn below_anchor(&self, horizon: Ts) -> usize {
        self.versions
            .iter()
            .rposition(|v| v.ts <= horizon)
            .unwrap_or(0)
    }

    /// True when [`VersionChain::prune`] at `horizon` has work to do: a
    /// version lies below the anchor, or the record is a dead tombstone.
    /// Both storage backends' vacuum passes test this before touching a
    /// record, so a chain whose versions all lie above the horizon is
    /// never rewritten.
    pub fn has_garbage(&self, horizon: Ts) -> bool {
        self.below_anchor(horizon) > 0 || self.is_dead(horizon)
    }

    /// Copy-on-write install with pruning: the chain that results from
    /// appending `v` after dropping every version below the anchor at
    /// `horizon`. Copies only the anchor and the versions above it, never
    /// the whole chain. Returns the new chain and the number of versions
    /// left out; `Ts::ZERO` keeps everything (bulk load, recovery).
    ///
    /// # Panics
    /// As [`VersionChain::install`].
    pub fn installed(&self, v: Version, horizon: Ts) -> (VersionChain, usize) {
        let (mut next, pruned) = self.copy_from_anchor(horizon, 1);
        next.install(v);
        (next, pruned)
    }

    /// Copy-on-write [`VersionChain::prune`]: a copy of the anchor at
    /// `horizon` and every version above it, and the number left out.
    pub fn pruned(&self, horizon: Ts) -> (VersionChain, usize) {
        self.copy_from_anchor(horizon, 0)
    }

    /// Copies the anchor and the versions above it into a chain with room
    /// for `spare` more.
    fn copy_from_anchor(&self, horizon: Ts, spare: usize) -> (VersionChain, usize) {
        let start = self.below_anchor(horizon);
        let mut versions = Vec::with_capacity(self.versions.len() - start + spare);
        versions.extend_from_slice(&self.versions[start..]);
        (VersionChain { versions }, start)
    }

    /// Versions newer than `snap`, newest first. Walks from the tail and
    /// stops at the snapshot, so a reader pays for the versions it cannot
    /// see, not for the history below them.
    pub fn newer_than(&self, snap: Ts) -> impl Iterator<Item = &Version> {
        self.versions.iter().rev().take_while(move |v| v.ts > snap)
    }

    /// Garbage-collects versions that no snapshot at or after `horizon`
    /// can ever read: drops every version strictly older than the newest
    /// version with `ts <= horizon` (that one is retained as the anchor).
    ///
    /// Returns the number of versions reclaimed.
    pub fn prune(&mut self, horizon: Ts) -> usize {
        let below = self.below_anchor(horizon);
        self.versions.drain(..below).count()
    }

    /// True when the chain holds only a tombstone that predates `horizon` —
    /// the whole record can be dropped from the table.
    pub fn is_dead(&self, horizon: Ts) -> bool {
        match self.versions.as_slice() {
            [only] => only.ts <= horizon && only.row().is_none(),
            _ => false,
        }
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when no version has ever been installed.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates versions oldest-first (used by the MVSG builder and tests).
    pub fn iter(&self) -> impl Iterator<Item = &Version> {
        self.versions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(v: i64) -> Row {
        Row::new(vec![Value::int(v)])
    }

    fn chain_123() -> VersionChain {
        let mut c = VersionChain::new();
        c.install(Version::data(Ts(1), TxnId(1), row(10)));
        c.install(Version::data(Ts(5), TxnId(2), row(50)));
        c.install(Version::data(Ts(9), TxnId(3), row(90)));
        c
    }

    #[test]
    fn visibility_picks_newest_at_or_before_snapshot() {
        let c = chain_123();
        assert!(c.visible(Ts(0)).is_none());
        assert_eq!(c.visible(Ts(1)).unwrap().row().unwrap().int(0), 10);
        assert_eq!(c.visible(Ts(4)).unwrap().row().unwrap().int(0), 10);
        assert_eq!(c.visible(Ts(5)).unwrap().row().unwrap().int(0), 50);
        assert_eq!(c.visible(Ts(100)).unwrap().row().unwrap().int(0), 90);
    }

    #[test]
    fn tombstone_is_visible_absence() {
        let mut c = chain_123();
        c.install(Version::tombstone(Ts(12), TxnId(4)));
        let v = c.visible(Ts(20)).unwrap();
        assert!(v.row().is_none(), "tombstone visible as absence");
        // Older snapshots still see the data.
        assert_eq!(c.visible(Ts(9)).unwrap().row().unwrap().int(0), 90);
    }

    #[test]
    #[should_panic(expected = "out of commit order")]
    fn install_enforces_commit_order() {
        let mut c = chain_123();
        c.install(Version::data(Ts(5), TxnId(9), row(0)));
    }

    #[test]
    fn prune_keeps_anchor_version() {
        let mut c = chain_123();
        let reclaimed = c.prune(Ts(6));
        // Versions ts1 dropped; ts5 is the anchor for horizon 6; ts9 newer.
        assert_eq!(reclaimed, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.visible(Ts(6)).unwrap().row().unwrap().int(0), 50);
        assert_eq!(c.visible(Ts(9)).unwrap().row().unwrap().int(0), 90);
    }

    #[test]
    fn prune_noop_when_horizon_precedes_all() {
        let mut c = chain_123();
        assert_eq!(c.prune(Ts(0)), 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn prune_to_latest_leaves_one() {
        let mut c = chain_123();
        assert_eq!(c.prune(Ts(100)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.latest_ts(), Some(Ts(9)));
    }

    #[test]
    fn installed_copies_from_the_anchor() {
        let c = chain_123();
        let (next, pruned) = c.installed(Version::data(Ts(12), TxnId(4), row(120)), Ts(6));
        // ts1 lies below the anchor (ts5) for horizon 6.
        assert_eq!(pruned, 1);
        assert_eq!(next.iter().map(|v| v.ts.0).collect::<Vec<_>>(), [5, 9, 12]);
        assert_eq!(c.len(), 3, "the source chain is untouched");
        let (kept, none) = c.installed(Version::data(Ts(12), TxnId(4), row(120)), Ts::ZERO);
        assert_eq!((kept.len(), none), (4, 0), "horizon zero keeps everything");
        let (pruned, n) = c.pruned(Ts(100));
        assert_eq!((pruned.len(), n), (1, 2));
        assert_eq!(pruned.latest_ts(), Some(Ts(9)));
    }

    #[test]
    fn garbage_means_below_the_anchor_or_dead() {
        let c = chain_123();
        assert!(!c.has_garbage(Ts(0)), "horizon precedes all versions");
        assert!(!c.has_garbage(Ts(4)), "ts1 is the anchor: nothing below it");
        assert!(c.has_garbage(Ts(5)));
        let mut dead = VersionChain::new();
        dead.install(Version::tombstone(Ts(3), TxnId(1)));
        assert!(dead.has_garbage(Ts(3)));
        assert!(!dead.has_garbage(Ts(2)));
    }

    #[test]
    fn newer_than_walks_from_the_tail() {
        let c = chain_123();
        let ts: Vec<u64> = c.newer_than(Ts(4)).map(|v| v.ts.0).collect();
        assert_eq!(ts, [9, 5]);
        assert_eq!(c.newer_than(Ts(9)).count(), 0);
    }

    #[test]
    fn dead_chain_detection() {
        let mut c = VersionChain::new();
        c.install(Version::data(Ts(1), TxnId(1), row(1)));
        c.install(Version::tombstone(Ts(2), TxnId(2)));
        assert!(!c.is_dead(Ts(10)), "still holds the data version");
        c.prune(Ts(10));
        assert!(c.is_dead(Ts(10)));
        assert!(!c.is_dead(Ts(1)), "horizon before the tombstone");
    }

    #[test]
    fn latest_accessors() {
        let c = chain_123();
        assert_eq!(c.latest_ts(), Some(Ts(9)));
        assert_eq!(c.latest().unwrap().writer, TxnId(3));
        assert!(VersionChain::new().latest_ts().is_none());
    }
}
