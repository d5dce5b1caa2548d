//! A bulk load: each column goes in whole, and the derived state —
//! spatial grid, secondary indexes, views — is built once over the
//! finished rows, as independent jobs ([`run_jobs`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use gamedb_spatial::Vec2;

use super::{grow_bounds, CoreError, World, POS_ID};
use crate::column::Column;
use crate::entity::EntityId;
use crate::intern::ComponentId;

/// A world part-way through [`World::bulk_load`]: schema and entities
/// are in place, columns are being installed
/// ([`BulkLoader::install_column`]). [`BulkLoader::finish`] hands the
/// world over.
#[derive(Debug)]
pub struct BulkLoader {
    pub(super) world: World,
    /// Interned id per schema position.
    pub(super) ids: Vec<ComponentId>,
}

impl BulkLoader {
    /// Install the whole column of schema entry `entry` (the column
    /// [`World::bulk_load`] defined empty), built by the caller with
    /// [`Column::from_parts`]. It must have the entry's type and hold
    /// values only at live slots: one type check and one pass over its
    /// presence, not a check per value.
    pub fn install_column(&mut self, entry: usize, column: Column) -> Result<(), CoreError> {
        let Some(&id) = self.ids.get(entry) else {
            return Err(CoreError::UnknownComponent(format!("schema entry {entry}")));
        };
        let world = &mut self.world;
        let expected = world.columns[id.index()].ty();
        if column.ty() != expected {
            return Err(CoreError::TypeMismatch {
                component: world.interner.name(id).unwrap_or_default().to_string(),
                expected,
                got: column.ty(),
            });
        }
        let alive = world.alloc.alive();
        let dead = (column.presence().iter().enumerate())
            .find(|&(slot, &present)| present && !alive.get(slot).copied().unwrap_or(false));
        if let Some((slot, _)) = dead {
            return Err(CoreError::DeadEntity(EntityId::new(slot as u32, 0)));
        }
        world.columns[id.index()] = column;
        Ok(())
    }

    /// Finish the load, the bounds grown over every position in id order
    /// (as a row-at-a-time restore grows them). Nothing derived exists
    /// yet, the spatial grid included: [`World::import_catalog`] builds it.
    pub fn finish(self) -> World {
        let mut world = self.world;
        let World {
            alloc,
            columns,
            bounds,
            ..
        } = &mut world;
        let pos = &columns[POS_ID.index()];
        for id in alloc.iter_live() {
            if let Some([x, y]) = pos.get_v2(id.index() as usize) {
                grow_bounds(bounds, Vec2::new(x, y));
            }
        }
        world
    }
}

/// Run jobs `0..jobs` on `min(workers, jobs)` threads, the calling
/// thread among them (one worker starts none), and return their results
/// in job order whatever order they finished in. A job's panic is
/// re-raised here.
pub(super) fn run_jobs<T: Send>(
    workers: usize,
    jobs: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}
