//! Dense slots for small integer ids: the per-station index behind the
//! AP queue pool and the observers that keep one accumulator per
//! station.

/// Ids below this map through a direct table; larger ids (no engine
/// assigns them, but hand-written traces and API callers may) fall back
/// to a linear scan, so a hostile id cannot make the table huge.
const DIRECT: u64 = 1 << 16;
/// The direct table's first size: one allocation covers the ids of a
/// small cell, and each later growth at least doubles it.
const DIRECT_MIN: usize = 16;
/// Marks an unseen id in the direct table.
const UNSEEN: u32 = u32::MAX;

/// Assigns each id a dense slot `0, 1, 2, …` in order of first sight,
/// and resolves an id to its slot in O(1) for ids below 65,536. Callers
/// keep their per-id payloads in a `Vec` indexed by slot, parallel to
/// [`StationSlots::ids`].
#[derive(Clone, Debug, Default)]
pub struct StationSlots {
    /// Id of each slot.
    ids: Vec<u64>,
    /// `direct[id]` = slot of `id` (`UNSEEN` when unseen), for ids
    /// below `DIRECT`. Grows in powers of two from `DIRECT_MIN`.
    direct: Vec<u32>,
}

impl StationSlots {
    /// The slot of `id`, if it has one.
    pub fn get(&self, id: u64) -> Option<usize> {
        if id < DIRECT {
            self.direct
                .get(id as usize)
                .copied()
                .filter(|&s| s != UNSEEN)
                .map(|s| s as usize)
        } else {
            self.ids.iter().position(|&x| x == id)
        }
    }

    /// The slot of `id`, and whether this call assigned it.
    pub fn slot(&mut self, id: u64) -> (usize, bool) {
        if let Some(s) = self.get(id) {
            return (s, false);
        }
        let s = self.ids.len();
        self.ids.push(id);
        if id < DIRECT {
            let i = id as usize;
            if self.direct.len() <= i {
                let len = (i + 1).next_power_of_two().max(DIRECT_MIN);
                self.direct.resize(len, UNSEEN);
            }
            self.direct[i] = s as u32;
        }
        (s, true)
    }

    /// The id of every slot, in slot order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Entries in the direct table: what the O(1) lookup costs in
    /// memory, at most 65,536 whatever ids are seen.
    pub fn table_len(&self) -> usize {
        self.direct.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_in_first_sight_order_for_small_and_huge_ids() {
        let mut s = StationSlots::default();
        assert_eq!(s.slot(7), (0, true));
        assert_eq!(s.slot(u64::MAX), (1, true));
        assert_eq!(s.slot(2), (2, true));
        assert_eq!(s.slot(7), (0, false));
        assert_eq!(s.slot(u64::MAX), (1, false));
        assert_eq!(s.ids(), &[7, u64::MAX, 2]);
        assert_eq!(
            (s.get(2), s.get(3), s.get(u64::MAX)),
            (Some(2), None, Some(1))
        );
        // The direct table only spans the small ids, in one allocation.
        assert_eq!(s.table_len(), DIRECT_MIN);
        assert_eq!(s.slot(DIRECT - 1), (3, true));
        assert_eq!(s.table_len(), DIRECT as usize);
        assert_eq!(s.slot(DIRECT), (4, true));
        assert_eq!(s.table_len(), DIRECT as usize);
    }
}
