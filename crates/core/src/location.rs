//! Per-location access histories (`ALocs` / `ALocInfo` of Fig. 10).
//!
//! C11Tester keeps, for each atomic location, a *per-thread* list of the
//! atomic accesses performed there (paper §4.1: "C11Tester maintains a
//! per-thread list of atomic memory accesses to each memory location").
//! All lists are sorted by sequence number because events are appended
//! as they execute, which lets the `last(...)` helper functions of
//! Fig. 12/13 run as binary searches.
//!
//! Every list is a [`SeqList`]: the event handles plus their sequence
//! numbers kept **inline**, in a parallel `u64` array. A `last(...)`
//! search is then one binary search over contiguous sequence numbers —
//! it never touches the (much larger) store/load arena records — and
//! the common "newest entry already qualifies" case is answered in O(1)
//! without searching. The two arrays change only together (`push`,
//! `retain`, `clear`), so pruning cannot leave them out of step.

use crate::event::{AccessRef, LoadIdx, SeqNum, StoreIdx};

/// An append-only history list: event handles in sequence order, with
/// each handle's sequence number stored inline beside it.
#[derive(Clone, Debug)]
pub struct SeqList<T> {
    items: Vec<T>,
    seqs: Vec<u64>,
}

impl<T> Default for SeqList<T> {
    fn default() -> Self {
        SeqList {
            items: Vec::new(),
            seqs: Vec::new(),
        }
    }
}

impl<T: Copy> SeqList<T> {
    /// Appends `item`, which executed at `seq` (later than every entry).
    pub fn push(&mut self, item: T, seq: SeqNum) {
        debug_assert!(
            self.seqs.last().is_none_or(|&last| last < seq.0),
            "history entries must be appended in sequence order"
        );
        self.items.push(item);
        self.seqs.push(seq.0);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The handles, in sequence order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The inline sequence numbers, parallel to [`SeqList::items`].
    pub fn seqs(&self) -> &[u64] {
        &self.seqs
    }

    /// Number of leading entries with sequence number ≤ `bound` — the
    /// split point every `last(...)` query reduces to. O(1) when the
    /// newest entry is within the bound (the usual case for a bound
    /// taken from a clock vector), a binary search otherwise.
    #[inline]
    pub fn split(&self, bound: u64) -> usize {
        match self.seqs.last() {
            Some(&last) if last > bound => self.seqs.partition_point(|&s| s <= bound),
            _ => self.seqs.len(),
        }
    }

    /// The last entry with sequence number ≤ `bound`, with its sequence
    /// number.
    #[inline]
    pub fn last_at_or_before(&self, bound: u64) -> Option<(T, u64)> {
        let pos = self.split(bound);
        (pos > 0).then(|| (self.items[pos - 1], self.seqs[pos - 1]))
    }

    /// The last entry with sequence number strictly below `bound`.
    #[inline]
    pub fn last_before(&self, bound: SeqNum) -> Option<(T, u64)> {
        self.last_at_or_before(bound.0.saturating_sub(1))
    }

    /// Keeps only the entries for which `keep` holds, preserving order
    /// and keeping the inline sequence numbers in step.
    pub fn retain(&mut self, mut keep: impl FnMut(T) -> bool) {
        let mut w = 0;
        for r in 0..self.items.len() {
            if keep(self.items[r]) {
                self.items[w] = self.items[r];
                self.seqs[w] = self.seqs[r];
                w += 1;
            }
        }
        self.items.truncate(w);
        self.seqs.truncate(w);
    }

    /// Empties the list without releasing its storage.
    pub fn clear(&mut self) {
        self.items.clear();
        self.seqs.clear();
    }

    /// Heap bytes reserved by both arrays.
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>() + self.seqs.capacity() * 8
    }
}

/// History of one thread's accesses to one location.
#[derive(Clone, Debug, Default)]
pub struct PerThreadLoc {
    /// `stores(t, a)`: stores and RMWs by this thread, in seq order.
    pub stores: SeqList<StoreIdx>,
    /// `loads_stores(t, a)`: loads, stores, and RMWs, in seq order.
    pub accesses: SeqList<AccessRef>,
    /// `sc_stores(t, a)`: the seq_cst subset of `stores`, in seq order.
    pub sc_stores: SeqList<StoreIdx>,
}

impl PerThreadLoc {
    /// True if the thread never touched the location.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Records a store (or RMW store half) that executed at `seq`.
    pub fn push_store(&mut self, s: StoreIdx, seq: SeqNum, is_sc: bool) {
        self.stores.push(s, seq);
        self.accesses.push(AccessRef::Store(s), seq);
        if is_sc {
            self.sc_stores.push(s, seq);
        }
    }

    /// Records a load that executed at `seq`.
    pub fn push_load(&mut self, l: LoadIdx, seq: SeqNum) {
        self.accesses.push(AccessRef::Load(l), seq);
    }

    /// Empties the history lists without releasing their storage
    /// (execution-state recycling).
    fn reset(&mut self) {
        self.stores.clear();
        self.accesses.clear();
        self.sc_stores.clear();
    }

    /// Heap bytes reserved by the three lists.
    pub fn heap_bytes(&self) -> usize {
        self.stores.heap_bytes() + self.accesses.heap_bytes() + self.sc_stores.heap_bytes()
    }
}

/// History of all accesses to one atomic location.
#[derive(Clone, Debug, Default)]
pub struct LocationState {
    /// Per-thread histories, indexed by `ThreadId::index()`.
    pub per_thread: Vec<PerThreadLoc>,
    /// `last_sc_store(a, ·)`: the most recent seq_cst store at this
    /// location (the SC order coincides with execution order because
    /// visible operations are sequentialized).
    pub last_sc_store: Option<StoreIdx>,
    /// The most recent store in *execution* order regardless of thread —
    /// used by the restricted tsan11/tsan11rec policies (which require
    /// `mo` to embed in execution order) and by mixed-mode handling.
    pub last_store_exec: Option<StoreIdx>,
    /// Whether the last write to this location was a non-atomic store
    /// (paper §7.2 — the shadow-word bit that triggers special handling
    /// when a subsequent atomic access arrives).
    pub last_write_nonatomic: bool,
    /// Count of pruned store records formerly at this location.
    pub pruned_stores: u64,
}

impl LocationState {
    /// Mutable access to thread `ix`'s history, growing the table.
    pub fn thread_mut(&mut self, ix: usize) -> &mut PerThreadLoc {
        if self.per_thread.len() <= ix {
            self.per_thread.resize_with(ix + 1, PerThreadLoc::default);
        }
        &mut self.per_thread[ix]
    }

    /// Shared access to thread `ix`'s history, if it exists.
    pub fn thread(&self, ix: usize) -> Option<&PerThreadLoc> {
        self.per_thread.get(ix)
    }

    /// Iterates over `(thread index, history)` pairs that have activity.
    pub fn threads(&self) -> impl Iterator<Item = (usize, &PerThreadLoc)> {
        self.per_thread
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
    }

    /// Total number of live store records across all threads.
    pub fn store_count(&self) -> usize {
        self.per_thread.iter().map(|h| h.stores.len()).sum()
    }

    /// Resets the location to its never-accessed state while retaining
    /// every history list's capacity (execution-state recycling). A
    /// reset location is indistinguishable from a fresh
    /// `LocationState::default()` through the public API: the emptied
    /// per-thread slots are skipped by [`LocationState::threads`].
    pub fn reset(&mut self) {
        for h in &mut self.per_thread {
            h.reset();
        }
        self.last_sc_store = None;
        self.last_store_exec = None;
        self.last_write_nonatomic = false;
        self.pruned_stores = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_table_grows_on_demand() {
        let mut loc = LocationState::default();
        loc.thread_mut(3).push_store(StoreIdx(0), SeqNum(2), false);
        assert_eq!(loc.per_thread.len(), 4);
        assert!(loc.thread(0).is_some());
        assert!(loc.thread(0).expect("slot 0 exists").is_empty());
        assert!(loc.thread(9).is_none());
        assert_eq!(loc.store_count(), 1);
    }

    #[test]
    fn threads_iter_skips_idle_threads() {
        let mut loc = LocationState::default();
        loc.thread_mut(2).push_load(LoadIdx(0), SeqNum(2));
        let active: Vec<usize> = loc.threads().map(|(ix, _)| ix).collect();
        assert_eq!(active, vec![2]);
    }

    /// `split` agrees with a linear scan on both sides of its O(1)
    /// fast path.
    #[test]
    fn split_matches_a_linear_scan() {
        let mut l = SeqList::default();
        for (i, seq) in [3u64, 5, 9, 10, 14].into_iter().enumerate() {
            l.push(StoreIdx(i as u32), SeqNum(seq));
        }
        for bound in 0..20 {
            let want = l.seqs().iter().filter(|&&s| s <= bound).count();
            assert_eq!(l.split(bound), want, "bound {bound}");
        }
        assert_eq!(l.last_at_or_before(9), Some((StoreIdx(2), 9)));
        assert_eq!(l.last_before(SeqNum(9)), Some((StoreIdx(1), 5)));
        assert_eq!(l.last_before(SeqNum(3)), None);
    }

    /// `retain` keeps handles and inline sequence numbers in step.
    #[test]
    fn retain_keeps_seqs_in_step() {
        let mut l = SeqList::default();
        for i in 0..6u32 {
            l.push(StoreIdx(i), SeqNum(u64::from(i) * 2 + 1));
        }
        l.retain(|s| s.0 % 2 == 0);
        assert_eq!(l.items(), &[StoreIdx(0), StoreIdx(2), StoreIdx(4)]);
        assert_eq!(l.seqs(), &[1, 5, 9]);
    }
}
