//! A bulk load: values go straight into their columns, and the derived
//! state — spatial grid, secondary indexes, views — is built once over
//! the finished rows, as independent jobs ([`run_jobs`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use gamedb_content::Value;
use gamedb_spatial::Vec2;

use super::{grow_bounds, CoreError, World, POS_ID};
use crate::entity::EntityId;
use crate::intern::ComponentId;

/// A world part-way through [`World::bulk_load`]: schema and entities
/// are in place, rows are being written ([`BulkLoader::row`]).
/// [`BulkLoader::finish`] hands the world over.
#[derive(Debug)]
pub struct BulkLoader {
    pub(super) world: World,
    /// Interned id per schema position.
    pub(super) ids: Vec<ComponentId>,
}

impl BulkLoader {
    /// Interned id of each schema entry, in the order the schema listed
    /// them — resolve a row's schema index here once, not by name per
    /// row.
    pub fn component_ids(&self) -> &[ComponentId] {
        &self.ids
    }

    /// Begin writing the row of `id`, one of the loaded entities: it is
    /// checked live here, once, not once per value.
    pub fn row(&mut self, id: EntityId) -> Result<RowLoader<'_>, CoreError> {
        self.world.check_live(id)?;
        Ok(RowLoader {
            world: &mut self.world,
            slot: id.index() as usize,
        })
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

/// One live entity's row during a bulk load: each value goes straight
/// into its column slot, type-checked against the column.
#[derive(Debug)]
pub struct RowLoader<'a> {
    world: &'a mut World,
    slot: usize,
}

impl RowLoader<'_> {
    /// Write one value into its column (a string moves in, uncopied).
    #[inline]
    pub fn put(&mut self, component: ComponentId, value: Value) -> Result<(), CoreError> {
        let world = &mut *self.world;
        let Some(col) = world.columns.get_mut(component.index()) else {
            return Err(CoreError::UnknownComponent(format!("{component}")));
        };
        let got = value.value_type();
        col.put(self.slot, value)
            .map_err(|expected| CoreError::TypeMismatch {
                component: world
                    .interner
                    .name(component)
                    .unwrap_or_default()
                    .to_string(),
                expected,
                got,
            })
    }
}
