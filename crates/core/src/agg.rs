//! The one accumulator behind every core aggregate:
//! [`crate::query::aggregate`], [`crate::dvm::ViewPlan::evaluate`], a
//! group view's seed and its maintenance all fold through this state,
//! under one [`AggKind`]. An ungrouped aggregate is the group with the
//! unit key (DBSP), and a maintained group needs only insert and retract
//! (Gupta–Mumick counting). On every path NaN is a NULL — its row counts
//! for `Count`, its value for nothing — and a zero extreme reads `+0.0`,
//! the key domain's rule ([`OrdF64`]: `-0.0` and `0.0` are one key); ties
//! otherwise keep the first row in slot order. `Sum` and `Avg` keep a
//! running `f64`, whose bits follow the order rows arrive in (ascending
//! slots on every fold); exact sums replace it here, in one place.

use std::collections::BTreeSet;

use crate::entity::EntityId;
use crate::index::OrdF64;
use crate::query::AggFn;

/// What an aggregate reads of the folded state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggKind {
    /// Lower `f` to its kind and the column it folds (none for `Count`).
    /// `ArgMin`/`ArgMax` lower to the extreme whose slot they read.
    pub(crate) fn of(f: &AggFn) -> (AggKind, Option<&String>) {
        match f {
            AggFn::Count => (AggKind::Count, None),
            AggFn::Sum(c) => (AggKind::Sum, Some(c)),
            AggFn::Min(c) | AggFn::ArgMin(c) => (AggKind::Min, Some(c)),
            AggFn::Max(c) | AggFn::ArgMax(c) => (AggKind::Max, Some(c)),
            AggFn::Avg(c) => (AggKind::Avg, Some(c)),
        }
    }
}

/// The insert-only state: rows, the non-NaN values' count, and the
/// running value the fold's kind reads — the sum, or the extreme beside
/// the slot of the first row holding it — so a value costs only its
/// kind's work.
#[derive(Debug, Clone, Default)]
pub(crate) struct Acc {
    rows: u32,
    n: u32,
    val: f64,
    at: u32,
}

impl Acc {
    /// Fold in one row at `slot` whose value is `v` (NaN: none).
    #[inline(always)]
    pub(crate) fn insert(&mut self, kind: AggKind, slot: u32, v: f64) {
        self.rows += 1;
        if v.is_nan() {
            return;
        }
        self.n += 1;
        // strict, so a tie keeps the first row
        match kind {
            AggKind::Count => {}
            AggKind::Sum | AggKind::Avg => self.val += v,
            AggKind::Min if self.n == 1 || v < self.val => (self.val, self.at) = (v, slot),
            AggKind::Max if self.n == 1 || v > self.val => (self.val, self.at) = (v, slot),
            AggKind::Min | AggKind::Max => {}
        }
    }

    /// The answer of `kind`; `Min`/`Max`/`Avg` over no value read 0.
    pub(crate) fn read(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Count => self.rows as f64,
            AggKind::Sum => self.val,
            _ if self.n == 0 => 0.0,
            AggKind::Avg => self.val / self.n as f64,
            AggKind::Min | AggKind::Max if self.val == 0.0 => 0.0,
            AggKind::Min | AggKind::Max => self.val,
        }
    }

    /// The slot of the first row holding the extreme; `None`: no value.
    pub(crate) fn arg(&self) -> Option<u32> {
        (self.n > 0).then_some(self.at)
    }
}

/// One maintained group: the insert-only state, plus, for `Min`/`Max`,
/// every value in an ordered multiset keyed `(value, row)`, so
/// retracting the extreme reads the next one there instead of
/// rescanning the base table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Maintained {
    acc: Acc,
    vals: BTreeSet<(OrdF64, EntityId)>,
}

impl Maintained {
    /// Rows inserted and not retracted.
    pub(crate) fn rows(&self) -> u32 {
        self.acc.rows
    }

    pub(crate) fn read(&self, kind: AggKind) -> f64 {
        self.acc.read(kind)
    }

    /// Fold in the row at `slot` whose value is `v` (NaN: none); its id
    /// is read only by `Min`/`Max`.
    pub(crate) fn insert(&mut self, kind: AggKind, slot: u32, v: f64, id: impl Fn() -> EntityId) {
        self.acc.insert(kind, slot, v);
        if let AggKind::Min | AggKind::Max = kind {
            if let Some(o) = OrdF64::new(v) {
                self.vals.insert((o, id()));
            }
        }
    }

    /// Retract row `id` with the value `v` it was inserted with, which
    /// lets sum and avg subtract without keeping the values. True when it
    /// held the extreme, then recomputed from the multiset in O(log n).
    /// A group left without rows starts over from empty.
    pub(crate) fn retract(&mut self, kind: AggKind, id: EntityId, v: f64) -> bool {
        let (acc, vals) = (&mut self.acc, &mut self.vals);
        acc.rows -= 1;
        acc.n -= u32::from(!v.is_nan());
        let min = kind == AggKind::Min;
        let end = |s: &BTreeSet<_>| if min { s.first() } else { s.last() }.copied();
        let recomputed = match (kind, OrdF64::new(v)) {
            (AggKind::Sum | AggKind::Avg, Some(_)) => {
                acc.val -= v;
                false
            }
            (AggKind::Min | AggKind::Max, Some(o)) => {
                let was_extreme = end(vals) == Some((o, id));
                vals.remove(&(o, id)) && was_extreme
            }
            _ => false,
        };
        if recomputed {
            // the next extreme is the multiset's new end: O(log n)
            (acc.val, acc.at) = end(vals).map_or((0.0, 0), |(o, id)| (o.get(), id.index()));
        }
        if acc.rows == 0 {
            *self = Maintained::default();
        }
        recomputed
    }
}
