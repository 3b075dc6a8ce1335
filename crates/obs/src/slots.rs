//! Dense per-station slots for observers that keep one accumulator per
//! station.

/// Station ids below this map through a direct table; larger ids (only
/// hand-written traces carry them) fall back to a linear scan, so a
/// hostile id cannot make the table huge.
const DIRECT: u64 = 1 << 16;
/// Marks an unseen id in the direct table.
const UNSEEN: u32 = u32::MAX;

/// Assigns each station id a dense slot `0, 1, 2, …` in order of first
/// sight. Callers keep their per-station payloads in a `Vec` indexed by
/// slot, parallel to [`StationSlots::ids`].
#[derive(Clone, Debug, Default)]
pub(crate) struct StationSlots {
    /// Station id of each slot.
    ids: Vec<u64>,
    /// `direct[id]` = slot of station `id` (`UNSEEN` when unseen), for
    /// ids below `DIRECT`.
    direct: Vec<u32>,
}

impl StationSlots {
    /// The slot of `station`, and whether this call assigned it.
    pub(crate) fn slot(&mut self, station: u64) -> (usize, bool) {
        let found = if station < DIRECT {
            self.direct
                .get(station as usize)
                .copied()
                .filter(|&s| s != UNSEEN)
                .map(|s| s as usize)
        } else {
            self.ids.iter().position(|&id| id == station)
        };
        if let Some(s) = found {
            return (s, false);
        }
        let s = self.ids.len();
        self.ids.push(station);
        if station < DIRECT {
            let i = station as usize;
            if self.direct.len() <= i {
                self.direct.resize(i + 1, UNSEEN);
            }
            self.direct[i] = s as u32;
        }
        (s, true)
    }

    /// The station id of every slot, in slot order.
    pub(crate) fn ids(&self) -> &[u64] {
        &self.ids
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
        // The direct table only spans the small ids.
        assert_eq!(s.direct.len(), 8);
    }
}
