//! The row side of a bulk load: values go straight into their columns,
//! positions reach the spatial grid in one pass at the end.

use gamedb_content::Value;
use gamedb_spatial::{SpatialIndex, Vec2};

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

    /// Finish the load: every position enters the spatial grid in one
    /// id-ordered pass (the order, and so the cell lists and the bounds,
    /// a row-at-a-time restore would have produced).
    pub fn finish(self) -> World {
        let mut world = self.world;
        let World {
            alloc,
            columns,
            spatial,
            bounds,
            ..
        } = &mut world;
        let pos = &columns[POS_ID.index()];
        spatial.reserve(pos.present_count());
        for id in alloc.iter_live() {
            if let Some([x, y]) = pos.get_v2(id.index() as usize) {
                let p = Vec2::new(x, y);
                spatial.insert(id.to_bits(), p);
                grow_bounds(bounds, p);
            }
        }
        world
    }
}

/// One live entity's row during a bulk load: each value goes straight
/// into its column slot, type-checked against the column. A `pos` value
/// reaches the spatial grid when the load finishes.
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
