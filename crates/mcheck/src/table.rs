//! Exact state storage: packed state keys back to back in one arena, and
//! the dedup index over them.
//!
//! A key is a state's exact encoding ([`gdp_sim::EngineState::encode`]),
//! plus scheduler bookkeeping words in product builds — a run of `u64`
//! words.  The index compares keys whole, word for word; the hash
//! ([`fingerprint64`] of the words) only says where to look, so no digest
//! decides state identity.

use gdp_sim::fingerprint64;

/// Runs of words stored back to back in one arena: the checker's frontier
/// and its state keys.
///
/// While every run has one length, a run is found by its index alone;
/// per-run offsets are kept only once lengths differ (a request-list or
/// guest-book tail), so fixed-length keys cost no more than their words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Packed {
    words: Vec<u64>,
    len: usize,
    /// The common run length, while there is one.
    stride: Option<usize>,
    /// Once lengths differ: run `i` is `words[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
}

impl Packed {
    pub(crate) fn new() -> Self {
        Packed {
            words: Vec::new(),
            len: 0,
            stride: None,
            starts: Vec::new(),
        }
    }

    /// Number of runs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of words in all runs.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Makes room for `runs` more runs of `words` words in all, exactly.
    pub(crate) fn reserve_exact(&mut self, runs: usize, words: usize) {
        self.words.reserve_exact(words);
        if self.stride.is_none() {
            self.starts.reserve_exact(runs);
        }
    }

    /// Run `i`.
    pub(crate) fn get(&self, i: usize) -> &[u64] {
        match self.stride {
            Some(stride) => &self.words[i * stride..(i + 1) * stride],
            None => &self.words[self.starts[i] as usize..self.starts[i + 1] as usize],
        }
    }

    /// Removes every run, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
        self.stride = None;
        self.starts.clear();
    }

    /// Appends a run.
    pub(crate) fn push(&mut self, run: &[u64]) {
        match self.stride {
            Some(stride) if stride != run.len() => {
                self.starts = (0..=self.len).map(|i| offset(i * stride)).collect();
                self.stride = None;
            }
            None if self.len == 0 => self.stride = Some(run.len()),
            _ => {}
        }
        self.words.extend_from_slice(run);
        self.len += 1;
        if self.stride.is_none() {
            self.starts.push(offset(self.words.len()));
        }
    }
}

fn offset(words: usize) -> u32 {
    u32::try_from(words).expect("packed runs exceed 2^32 words")
}

/// Marks an empty slot.
const EMPTY: u32 = u32::MAX;

/// The keys whose home slots are loaded together, ahead of placing them
/// ([`KeyIndex::of`]) or of the merge inserting them
/// ([`KeyTable::load_homes`]).
pub(crate) const LOOKAHEAD: usize = 64;

/// An exact index over the runs of one [`Packed`] arena: open-addressing
/// `u32` slots (linear probing, at most half full) holding run numbers.
/// Two runs share a number exactly when their words are equal.
#[derive(Clone, Debug)]
pub(crate) struct KeyIndex {
    slots: Vec<u32>,
}

impl KeyIndex {
    /// The index of every run of `keys`, which must be distinct, built in
    /// one pass.
    pub(crate) fn of(keys: &Packed) -> Self {
        let mut slots = vec![EMPTY; (2 * keys.len()).next_power_of_two().max(16)];
        let mask = slots.len() - 1;
        let mut homes = [0; LOOKAHEAD];
        for first in (0..keys.len()).step_by(LOOKAHEAD) {
            let chunk = first..keys.len().min(first + LOOKAHEAD);
            let homes = &mut homes[..chunk.len()];
            for (home, i) in homes.iter_mut().zip(chunk.clone()) {
                *home = fingerprint64(keys.get(i)) as usize & mask;
            }
            load(&slots, homes.iter().copied());
            for (&home, i) in homes.iter().zip(chunk) {
                let mut slot = home;
                while slots[slot] != EMPTY {
                    slot = (slot + 1) & mask;
                }
                slots[slot] = i as u32;
            }
        }
        KeyIndex { slots }
    }

    /// The number of `key` in `keys`, the arena this index was built over.
    pub(crate) fn get(&self, keys: &Packed, key: &[u64]) -> Option<u32> {
        self.probe(keys, key, self.home(key), 0).ok()
    }

    /// The slot a probe for `key` starts from.
    fn home(&self, key: &[u64]) -> usize {
        fingerprint64(key) as usize & (self.slots.len() - 1)
    }

    /// Writes into `found` the number in `arena`, the arena this index was
    /// built over, of every run of `keys` in turn: what [`get`](Self::get)
    /// returns for each.
    ///
    /// The lookups run in three passes, and the loads within a pass do not
    /// depend on one another, so their cache misses overlap: every key's
    /// home slot, then the first word of the key each occupied home slot
    /// names, then each probe, which finds those loads cached.
    fn get_batch(&self, arena: &Packed, keys: &Packed, found: &mut Vec<Option<u32>>) {
        let homes: Vec<usize> = (0..keys.len()).map(|i| self.home(keys.get(i))).collect();
        load(&self.slots, homes.iter().copied());
        let candidates = homes.iter().fold(0, |sink, &home| match self.slots[home] {
            EMPTY => sink,
            index => sink ^ arena.get(index as usize).first().copied().unwrap_or(0),
        });
        std::hint::black_box(candidates);
        found.clear();
        found.extend(
            homes
                .iter()
                .enumerate()
                .map(|(i, &home)| self.probe(arena, keys.get(i), home, 0).ok()),
        );
    }

    /// `Ok(number)` of `key`, or `Err(slot)`: the empty slot it would take,
    /// probing from `key`'s `home` slot.  Only the keys numbered `first` or
    /// above are compared; a slot holding a lower number is passed over
    /// without reading its key.
    fn probe(&self, keys: &Packed, key: &[u64], home: usize, first: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                index if index >= first && keys.get(index as usize) == key => return Ok(index),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Loads `slots[home]` for every one of `homes` and discards the values:
/// the loads do not depend on one another, so their cache misses overlap,
/// and probes from those slots that follow find them cached.  (The crate
/// forbids `unsafe`, so this stands in for a prefetch instruction.)
fn load(slots: &[u32], homes: impl IntoIterator<Item = usize>) {
    let sink = homes.into_iter().fold(0, |sink, home| sink ^ slots[home]);
    std::hint::black_box(sink);
}

/// The empty slot a key missing from a [`KeyTable`] would take.
pub(crate) struct Vacant(usize);

/// An exact dedup table of state keys, numbered in insertion order: the
/// key arena and its index.
#[derive(Clone, Debug)]
pub(crate) struct KeyTable {
    keys: Packed,
    index: KeyIndex,
}

impl KeyTable {
    pub(crate) fn new() -> Self {
        let keys = Packed::new();
        let index = KeyIndex::of(&keys);
        KeyTable { keys, index }
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The key numbered `index`.
    pub(crate) fn key(&self, index: u32) -> &[u64] {
        self.keys.get(index as usize)
    }

    /// The key arena.
    pub(crate) fn keys(&self) -> &Packed {
        &self.keys
    }

    /// Makes room for `keys` more keys of `words` words in all, exactly.
    pub(crate) fn reserve_exact(&mut self, keys: usize, words: usize) {
        self.keys.reserve_exact(keys, words);
    }

    /// Writes into `found` the number of every run of `keys` in turn, or
    /// `None` for a key the table lacks: [`find`](Self::find) of each,
    /// with the cache misses of the lookups overlapping.
    pub(crate) fn get_batch(&self, keys: &Packed, found: &mut Vec<Option<u32>>) {
        self.index.get_batch(&self.keys, keys, found);
    }

    /// Loads the home slots of `keys` together, so that their cache misses
    /// overlap and the [`find`](Self::find)s of them that follow hit the
    /// cache.
    pub(crate) fn load_homes<'k>(&self, keys: impl IntoIterator<Item = &'k [u64]>) {
        let homes = keys.into_iter().map(|key| self.index.home(key));
        load(&self.index.slots, homes);
    }

    /// `Ok` with the number of `key`, or `Err` with the place an
    /// [`insert_at`](Self::insert_at) of it takes.  Only the keys numbered
    /// `first` or above are compared: the caller knows `key` is none of the
    /// lower-numbered ones (`first = 0` compares every key).
    pub(crate) fn find(&self, key: &[u64], first: u32) -> Result<u32, Vacant> {
        let home = self.index.home(key);
        self.index
            .probe(&self.keys, key, home, first)
            .map_err(Vacant)
    }

    /// Inserts `key` as the next number at `vacant`, the place the last
    /// [`find`](Self::find) of it returned, and returns its number.
    ///
    /// # Panics
    ///
    /// Panics once the table holds `u32::MAX` keys.
    pub(crate) fn insert_at(&mut self, vacant: Vacant, key: &[u64]) -> u32 {
        debug_assert_eq!(self.index.slots[vacant.0], EMPTY, "a vacant slot");
        let index = u32::try_from(self.len())
            .ok()
            .filter(|&index| index != EMPTY)
            .expect("state numbers exceed the u32 range");
        self.keys.push(key);
        self.index.slots[vacant.0] = index;
        if 2 * self.len() > self.index.slots.len() {
            self.index = KeyIndex::of(&self.keys);
        }
        index
    }

    /// The number of `key`, inserting it as the next number when absent;
    /// the flag tells whether it was inserted.
    pub(crate) fn insert(&mut self, key: &[u64]) -> (u32, bool) {
        match self.find(key, 0) {
            Ok(index) => (index, false),
            Err(vacant) => (self.insert_at(vacant, key), true),
        }
    }

    /// The keys in number order, without the index.
    pub(crate) fn into_keys(self) -> Packed {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BATCH_EDGES;

    /// Looks `probes` up in batches of one, of seven and of one more than
    /// the build's batch, and checks every result against a `find` of that
    /// key alone.
    fn assert_batches_match_find(table: &KeyTable, probes: &[Vec<u64>]) {
        let (mut batch, mut found) = (Packed::new(), Vec::new());
        for size in [1, 7, BATCH_EDGES + 1] {
            for chunk in probes.chunks(size) {
                batch.clear();
                for key in chunk {
                    batch.push(key);
                }
                table.get_batch(&batch, &mut found);
                let alone: Vec<_> = chunk.iter().map(|key| table.find(key, 0).ok()).collect();
                assert_eq!(found, alone, "batches of {size}");
            }
        }
    }

    #[test]
    fn keys_are_numbered_in_insertion_order_and_compared_whole() {
        let mut table = KeyTable::new();
        // One-word keys first, then mixed lengths: the arena drops its
        // common stride mid-way.
        let keys: Vec<Vec<u64>> = (0..1000u64)
            .map(|i| {
                let words = if i < 500 { 1 } else { 1 + i % 3 };
                (0..words).map(|w| i * 7 + w).collect()
            })
            .collect();
        // Batched lookups of every key, one of them twice in a row, a
        // prefix, an extension, the empty key and a key never inserted.
        let mut probes = keys.clone();
        probes.insert(3, keys[2].clone());
        probes.extend([
            keys[998][..1].to_vec(),
            vec![keys[0][0], 0],
            Vec::new(),
            vec![u64::MAX],
        ]);
        for (i, key) in keys[..500].iter().enumerate() {
            assert_eq!(table.insert(key), (i as u32, true));
        }
        // The arena still has its stride, and half the keys are absent.
        assert_batches_match_find(&table, &probes);
        for (i, key) in keys.iter().enumerate().skip(500) {
            assert_eq!(table.insert(key), (i as u32, true));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.insert(key), (i as u32, false));
            assert_eq!(table.find(key, 0).ok(), Some(i as u32));
            assert_eq!(table.key(i as u32), key.as_slice());
        }
        assert_eq!(table.len(), 1000);
        // A prefix or extension of a stored key is another key.
        assert_eq!(table.find(&keys[998][..1], 0).ok(), None);
        assert_eq!(table.find(&[keys[0][0], 0], 0).ok(), None);
        assert_eq!(table.find(&[], 0).ok(), None);
        assert_batches_match_find(&table, &probes);

        // An index built over the arena afterwards numbers it the same way.
        let arena = table.into_keys();
        let index = KeyIndex::of(&arena);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(index.get(&arena, key), Some(i as u32));
        }
        assert_eq!(index.get(&arena, &keys[998][..1]), None);
    }
}
