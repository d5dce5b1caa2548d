//! Entity identifiers.
//!
//! Entities are rows of the world database. Ids are generational: a slot
//! index plus a generation counter, so a stale id held by a script after
//! the entity despawns can never alias a newly spawned entity reusing the
//! slot — the classic dangling-row bug in game object systems.

use std::fmt;

/// A generational entity id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId {
    index: u32,
    gen: u32,
}

impl EntityId {
    pub(crate) fn new(index: u32, gen: u32) -> Self {
        EntityId { index, gen }
    }

    /// Slot index within the world's column storage.
    #[inline]
    pub fn index(self) -> u32 {
        self.index
    }

    /// Generation counter for this slot.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Pack into a `u64` for use as a spatial-index item id.
    #[inline]
    pub fn to_bits(self) -> u64 {
        ((self.gen as u64) << 32) | self.index as u64
    }

    /// Inverse of [`EntityId::to_bits`].
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        EntityId {
            index: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}v{}", self.index, self.gen)
    }
}

/// Allocates entity slots with generation tracking and a free list.
#[derive(Debug, Clone, Default)]
pub struct EntityAllocator {
    gens: Vec<u32>,
    alive: Vec<bool>,
    free: Vec<u32>,
    live_count: usize,
}

impl EntityAllocator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new entity, reusing a freed slot when available.
    pub fn alloc(&mut self) -> EntityId {
        self.live_count += 1;
        if let Some(index) = self.free.pop() {
            let i = index as usize;
            self.alive[i] = true;
            EntityId::new(index, self.gens[i])
        } else {
            let index = self.gens.len() as u32;
            self.gens.push(0);
            self.alive.push(true);
            EntityId::new(index, 0)
        }
    }

    /// Free an entity; returns `false` when the id is stale or already
    /// freed.
    pub fn free(&mut self, id: EntityId) -> bool {
        let i = id.index() as usize;
        if i >= self.gens.len() || !self.alive[i] || self.gens[i] != id.generation() {
            return false;
        }
        self.alive[i] = false;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(id.index());
        self.live_count -= 1;
        true
    }

    /// True when `id` refers to a live entity.
    #[inline]
    pub fn is_live(&self, id: EntityId) -> bool {
        let i = id.index() as usize;
        i < self.gens.len() && self.alive[i] && self.gens[i] == id.generation()
    }

    /// Number of live entities.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Total slots ever allocated (live + free).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.gens.len()
    }

    /// Iterate live entity ids in slot order (deterministic).
    pub fn iter_live(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.gens
            .iter()
            .zip(self.alive.iter())
            .enumerate()
            .filter(|&(_, (_, &alive))| alive)
            .map(|(i, (&gen, _))| EntityId::new(i as u32, gen))
    }

    /// The id of the entity living at `slot`, which the caller knows is
    /// live — how a block of selected slots turns back into ids.
    #[inline]
    pub(crate) fn id_at(&self, slot: u32) -> EntityId {
        EntityId::new(slot, self.gens[slot as usize])
    }

    /// Liveness by slot — what a block scan reads its live rows from.
    #[inline]
    pub(crate) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Current id at `slot` if live (used when rebuilding from snapshots).
    pub fn live_at_slot(&self, slot: u32) -> Option<EntityId> {
        let i = slot as usize;
        (i < self.gens.len() && self.alive[i]).then(|| EntityId::new(slot, self.gens[i]))
    }

    /// Restore an entity with an exact id (slot + generation), extending
    /// the slot table as needed — recovery rebuilds worlds from snapshots
    /// and must preserve ids so cross-entity references stay valid.
    /// Returns `false` when the slot is already live.
    pub fn restore(&mut self, id: EntityId) -> bool {
        let i = id.index() as usize;
        while self.gens.len() <= i {
            self.free.push(self.gens.len() as u32);
            self.gens.push(0);
            self.alive.push(false);
        }
        if self.alive[i] {
            return false;
        }
        self.gens[i] = id.generation();
        self.alive[i] = true;
        self.free.retain(|&f| f != id.index());
        self.live_count += 1;
        true
    }

    /// An allocator holding exactly `ids`, built in one pass — the same
    /// state [`EntityAllocator::restore`] reaches one id at a time from
    /// empty (dead slots at generation 0, free list ascending), without
    /// the per-id free-list scan. `Err` names the first id whose slot
    /// was already taken.
    pub fn restore_all(ids: &[EntityId]) -> Result<EntityAllocator, EntityId> {
        let slots = ids.iter().map(|id| id.index() as usize + 1).max().unwrap_or(0);
        let mut a = EntityAllocator {
            gens: vec![0; slots],
            alive: vec![false; slots],
            free: Vec::new(),
            live_count: ids.len(),
        };
        for &id in ids {
            let i = id.index() as usize;
            if a.alive[i] {
                return Err(id);
            }
            a.gens[i] = id.generation();
            a.alive[i] = true;
        }
        a.free = (0..slots as u32).filter(|&s| !a.alive[s as usize]).collect();
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_realloc_generations() {
        let mut a = EntityAllocator::new();
        let e0 = a.alloc();
        let e1 = a.alloc();
        assert_eq!(e0.index(), 0);
        assert_eq!(e1.index(), 1);
        assert_eq!(a.live_count(), 2);

        assert!(a.free(e0));
        assert!(!a.is_live(e0));
        assert!(a.is_live(e1));

        let e2 = a.alloc();
        // slot reused, generation bumped
        assert_eq!(e2.index(), 0);
        assert_eq!(e2.generation(), 1);
        assert_ne!(e0, e2);
        assert!(!a.is_live(e0), "stale id must stay dead");
        assert!(a.is_live(e2));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = EntityAllocator::new();
        let e = a.alloc();
        assert!(a.free(e));
        assert!(!a.free(e));
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn stale_free_rejected() {
        let mut a = EntityAllocator::new();
        let e0 = a.alloc();
        a.free(e0);
        let e1 = a.alloc(); // same slot, new generation
        assert!(!a.free(e0), "freeing with a stale id must fail");
        assert!(a.is_live(e1));
    }

    #[test]
    fn iter_live_in_slot_order() {
        let mut a = EntityAllocator::new();
        let ids: Vec<EntityId> = (0..5).map(|_| a.alloc()).collect();
        a.free(ids[1]);
        a.free(ids[3]);
        let live: Vec<u32> = a.iter_live().map(|e| e.index()).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn bits_roundtrip() {
        let id = EntityId::new(12345, 678);
        assert_eq!(EntityId::from_bits(id.to_bits()), id);
    }

    #[test]
    fn restore_all_matches_one_by_one_restore() {
        // holes, bumped generations, and an id list that is not slot-sorted
        let ids = [
            EntityId::new(6, 2),
            EntityId::new(1, 0),
            EntityId::new(3, 7),
            EntityId::new(9, 1),
        ];
        let mut one_by_one = EntityAllocator::new();
        for &id in &ids {
            assert!(one_by_one.restore(id));
        }
        let mut bulk = EntityAllocator::restore_all(&ids).unwrap();
        assert_eq!(bulk.live_count(), 4);
        assert_eq!(
            bulk.iter_live().collect::<Vec<_>>(),
            one_by_one.iter_live().collect::<Vec<_>>()
        );
        // the free list hands out the same slots in the same order
        for _ in 0..8 {
            assert_eq!(bulk.alloc(), one_by_one.alloc());
        }
        assert_eq!(
            EntityAllocator::restore_all(&[ids[0], EntityId::new(6, 3)]).unwrap_err(),
            EntityId::new(6, 3),
            "a slot restores once"
        );
    }

    #[test]
    fn live_at_slot() {
        let mut a = EntityAllocator::new();
        let e = a.alloc();
        assert_eq!(a.live_at_slot(0), Some(e));
        assert_eq!(a.live_at_slot(9), None);
        a.free(e);
        assert_eq!(a.live_at_slot(0), None);
    }
}
