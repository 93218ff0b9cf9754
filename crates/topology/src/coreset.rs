//! A dense set of CPU ids held as `u64` words.
//!
//! vNode spans, a machine's assigned cores and its free cores are all
//! subsets of `0..n` for an `n` in the hundreds, read and rewritten on
//! every VM arrival and departure. As bit words they cost `⌈n/64⌉` words
//! each, and the selection kernels in [`crate::select`] intersect them
//! with precomputed per-CPU masks instead of walking id lists.

use serde::{Deserialize, Serialize};

use crate::topo::CoreId;

const WORD_BITS: usize = u64::BITS as usize;

/// A set of [`CoreId`]s, iterated in ascending order.
///
/// The word vector grows on `insert` and never shrinks; two sets holding
/// the same ids are equal whatever their capacities. Serialized as the
/// ascending id list.
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(into = "Vec<CoreId>", from = "Vec<CoreId>")]
pub struct CoreSet {
    words: Vec<u64>,
    len: u32,
}

impl CoreSet {
    /// An empty set.
    pub fn new() -> Self {
        CoreSet::default()
    }

    /// An empty set with room for the ids `0..cores`, so that inserting
    /// any of them never allocates.
    pub fn with_capacity(cores: u32) -> Self {
        CoreSet {
            words: vec![0; (cores as usize).div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// Adds `core`; returns whether it was absent.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let (word, bit) = split(core);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += absent as u32;
        absent
    }

    /// Removes `core`; returns whether it was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let present = self.contains(core);
        if present {
            let (word, bit) = split(core);
            self.words[word] &= !bit;
            self.len -= 1;
        }
        present
    }

    /// Whether `core` is in the set.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        let (word, bit) = split(core);
        self.word(word) & bit != 0
    }

    /// Number of ids held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no id is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lowest id held.
    pub fn first(&self) -> Option<CoreId> {
        self.iter().next()
    }

    /// The highest id held.
    pub fn last(&self) -> Option<CoreId> {
        let word = self.words.iter().rposition(|&w| w != 0)?;
        let bit = WORD_BITS - 1 - self.words[word].leading_zeros() as usize;
        Some(CoreId((word * WORD_BITS + bit) as u32))
    }

    /// The ids held, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            next_word: 0,
            current: 0,
        }
    }

    /// Makes `self` the complement of `other` within `0..universe`: the
    /// ids below `universe` that `other` does not hold. Bits at and above
    /// `universe` in the last word stay clear, whatever `other` holds.
    pub fn assign_complement(&mut self, other: &CoreSet, universe: u32) {
        let universe = universe as usize;
        self.words.clear();
        self.words
            .extend((0..universe.div_ceil(WORD_BITS)).map(|w| !other.word(w)));
        let tail_bits = universe % WORD_BITS;
        if tail_bits > 0 {
            if let Some(tail) = self.words.last_mut() {
                *tail &= (1u64 << tail_bits) - 1;
            }
        }
        self.len = self.words.iter().map(|w| w.count_ones()).sum();
    }

    /// The `index`-th word of the set; zero past its capacity.
    #[inline]
    pub(crate) fn word(&self, index: usize) -> u64 {
        self.words.get(index).copied().unwrap_or(0)
    }
}

/// Word index and single-bit mask of `core`.
#[inline]
fn split(core: CoreId) -> (usize, u64) {
    (core.index() / WORD_BITS, 1u64 << (core.index() % WORD_BITS))
}

/// Ascending iterator over a [`CoreSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the word after the one `current` was loaded from.
    next_word: usize,
    /// Bits of the word in progress not yet yielded.
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        while self.current == 0 {
            self.current = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(CoreId(((self.next_word - 1) * WORD_BITS + bit) as u32))
    }
}

impl<'a> IntoIterator for &'a CoreSet {
    type Item = CoreId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for CoreSet {
    fn eq(&self, other: &CoreSet) -> bool {
        let words = self.words.len().max(other.words.len());
        self.len == other.len && (0..words).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for CoreSet {}

impl std::fmt::Debug for CoreSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|core| core.0))
            .finish()
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(ids: I) -> Self {
        let mut set = CoreSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

impl From<Vec<CoreId>> for CoreSet {
    fn from(ids: Vec<CoreId>) -> Self {
        ids.into_iter().collect()
    }
}

impl From<CoreSet> for Vec<CoreId> {
    fn from(set: CoreSet) -> Self {
        set.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(set: &CoreSet) -> Vec<u32> {
        set.iter().map(|c| c.0).collect()
    }

    #[test]
    fn insert_remove_len_across_word_boundaries() {
        let mut set = CoreSet::new();
        assert!(set.is_empty());
        assert_eq!((set.first(), set.last()), (None, None));
        for id in [63, 64, 65, 127, 128] {
            assert!(set.insert(CoreId(id)));
            assert!(!set.insert(CoreId(id)), "{id} inserted twice");
            assert!(set.contains(CoreId(id)));
        }
        assert_eq!(set.len(), 5);
        assert_eq!(ids(&set), vec![63, 64, 65, 127, 128]);
        assert_eq!(set.first(), Some(CoreId(63)));
        assert_eq!(set.last(), Some(CoreId(128)));

        assert!(set.remove(CoreId(128)));
        assert!(!set.remove(CoreId(128)));
        assert!(!set.remove(CoreId(4096)), "beyond capacity is absent");
        assert!(!set.contains(CoreId(4096)));
        assert_eq!(set.last(), Some(CoreId(127)));
        assert!(set.remove(CoreId(63)));
        assert_eq!(set.first(), Some(CoreId(64)));
        assert_eq!(set.len(), 3);
        assert_eq!(ids(&set), vec![64, 65, 127]);
    }

    #[test]
    fn iter_is_ascending_whatever_the_insertion_order() {
        let set: CoreSet = [200, 0, 64, 63, 1, 255, 128, 127]
            .into_iter()
            .map(CoreId)
            .collect();
        assert_eq!(ids(&set), vec![0, 1, 63, 64, 127, 128, 200, 255]);
        assert_eq!((&set).into_iter().count(), set.len());
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut wide = CoreSet::with_capacity(256);
        let mut narrow = CoreSet::new();
        assert_eq!(wide, narrow);
        wide.insert(CoreId(3));
        narrow.insert(CoreId(3));
        assert_eq!(wide, narrow);
        // A set that grew to three words and shrank back compares equal too.
        narrow.insert(CoreId(130));
        assert_ne!(wide, narrow);
        narrow.remove(CoreId(130));
        assert_eq!(wide, narrow);
        assert_eq!(narrow, wide);
    }

    #[test]
    fn from_vec_drops_duplicates_and_sorts() {
        let set = CoreSet::from(vec![
            CoreId(65),
            CoreId(2),
            CoreId(65),
            CoreId(2),
            CoreId(64),
        ]);
        assert_eq!(set.len(), 3);
        assert_eq!(
            Vec::<CoreId>::from(set),
            vec![CoreId(2), CoreId(64), CoreId(65)]
        );
    }

    #[test]
    fn complement_masks_the_tail_of_the_last_word() {
        for universe in [1u32, 63, 64, 65, 70, 127, 128, 192] {
            let taken: CoreSet = (0..universe).step_by(3).map(CoreId).collect();
            let mut free = CoreSet::new();
            free.assign_complement(&taken, universe);
            let expected: Vec<u32> = (0..universe).filter(|id| id % 3 != 0).collect();
            assert_eq!(ids(&free), expected, "universe {universe}");
            assert_eq!(free.len(), expected.len());
            assert!(free.iter().all(|c| c.0 < universe));
        }
        // Reuse shrinks as well as grows, and ignores ids beyond the universe.
        let mut scratch = CoreSet::new();
        scratch.assign_complement(&CoreSet::new(), 130);
        assert_eq!(scratch.len(), 130);
        let beyond: CoreSet = [CoreId(1), CoreId(99)].into_iter().collect();
        scratch.assign_complement(&beyond, 3);
        assert_eq!(ids(&scratch), vec![0, 2]);
    }
}
