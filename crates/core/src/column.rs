//! Typed columnar component storage.
//!
//! The world is a column store: one [`Column`] per component, indexed by
//! entity slot. Columns are dense `Vec`s of the native representation
//! (`f32`, `i64`, …) plus a presence bitmap — the layout that makes
//! set-at-a-time script evaluation (experiment E1) and aggregate scans
//! cache-friendly, mirroring how analytical databases lay out attributes.
//! A string column is dictionary-encoded ([`StrColumn`]): a `u32` code
//! per slot and each distinct live string stored once, so strings exist
//! only at the edge — a write interns, a read decodes — and everything
//! between (filters, snapshots, view seeds, and the secondary index and
//! one-shot group fold that key by the codes themselves) moves codes.

use gamedb_content::{Value, ValueType};

use crate::index::{KeyRef, KeyTable};

/// Native storage for one component type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    F32(Vec<f32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    Str(StrColumn),
    V2(Vec<[f32; 2]>),
}

/// The code of a slot that holds no string.
pub const NO_CODE: u32 = u32::MAX;

/// A dictionary-encoded string column: one `u32` code per slot
/// ([`NO_CODE`] where the slot holds no value) and one dictionary (a
/// [`KeyTable`]) that stores each distinct live string once and counts
/// the slots holding it. A code is freed the moment no slot holds it and
/// reused by the next new string, so churn cannot grow the dictionary
/// past the live strings. The code is the string's only key id outside
/// a view: a secondary index on the column keys its postings by it, and
/// a one-shot group fold numbers its groups by it.
#[derive(Debug, Clone, Default)]
pub struct StrColumn {
    codes: Vec<u32>,
    /// Boxed: the world's column table holds a pointer per string
    /// column, not a key table inline in every column's slot.
    dict: Box<KeyTable>,
}

impl StrColumn {
    /// A column built whole from a dictionary and slot-indexed codes
    /// (a bulk load): `dictionary[c]` is the string of code `c`, and
    /// `codes[slot]` is [`NO_CODE`] or a code below `dictionary.len()`.
    /// Each string is copied once. `None` when a string is listed twice,
    /// a code is past the dictionary, or an entry no slot holds.
    pub fn from_parts(dictionary: &[&str], codes: Vec<u32>) -> Option<StrColumn> {
        let mut dict = Box::<KeyTable>::default();
        for (code, s) in (0u32..).zip(dictionary) {
            if dict.id(KeyRef::Str(s)) != code {
                return None;
            }
        }
        let mut rows = vec![0u32; dictionary.len()];
        for &code in codes.iter().filter(|&&c| c != NO_CODE) {
            *rows.get_mut(code as usize)? += 1;
        }
        for (code, &n) in (0u32..).zip(&rows) {
            if n == 0 {
                return None;
            }
            dict.hold(code, n);
        }
        Some(StrColumn { codes, dict })
    }

    /// The code at every slot, [`NO_CODE`] where there is no value.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The code at `slot`; `None` when it holds no value.
    #[inline]
    pub fn code(&self, slot: usize) -> Option<u32> {
        self.codes.get(slot).copied().filter(|&c| c != NO_CODE)
    }

    /// The string of a live `code`.
    #[inline]
    pub fn decode(&self, code: u32) -> Option<&str> {
        self.dict.get_str(code)
    }

    /// The code of `s`, if a slot holds it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.find(KeyRef::Str(s))
    }

    /// Distinct strings the dictionary holds (each held by some slot).
    pub fn distinct(&self) -> usize {
        self.dict.len()
    }

    /// One past the largest code handed out: the length of a vector
    /// indexed by code.
    pub fn code_bound(&self) -> usize {
        self.dict.id_bound()
    }

    /// The dictionary: each live code's string and cached prefix.
    pub(crate) fn dict(&self) -> &KeyTable {
        &self.dict
    }

    /// The dictionary's strings, by ascending code.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        (0..self.code_bound() as u32).filter_map(|c| self.decode(c))
    }

    fn len(&self) -> usize {
        self.codes.len()
    }

    /// Store `s` at `slot` (within the column): a string the slot already
    /// holds changes nothing, any other is interned and only then the
    /// slot's old code released — one allocation only for a string no
    /// slot holds. Interning first means a changed string never gets its
    /// old code back, so a reader keyed by code (a secondary index) sees
    /// the change as a new code.
    fn put(&mut self, slot: usize, s: &str) {
        let held = self.codes[slot];
        if held != NO_CODE && self.dict.get_str(held) == Some(s) {
            return;
        }
        self.codes[slot] = self.dict.intern(KeyRef::Str(s), 1);
        if held != NO_CODE {
            self.dict.unhold(held);
        }
    }

    /// Empty `slot`, freeing its code when no other slot holds it.
    fn clear(&mut self, slot: usize) {
        let held = std::mem::replace(&mut self.codes[slot], NO_CODE);
        if held != NO_CODE {
            self.dict.unhold(held);
        }
    }
}

/// Two string columns are equal when every slot holds the same string
/// (or none), whatever codes the two dictionaries gave them.
impl PartialEq for StrColumn {
    fn eq(&self, other: &StrColumn) -> bool {
        self.len() == other.len()
            && (self.codes.iter().zip(&other.codes))
                .all(|(&a, &b)| self.decode(a) == other.decode(b))
    }
}

impl ColumnData {
    fn new(ty: ValueType) -> ColumnData {
        match ty {
            ValueType::Float => ColumnData::F32(Vec::new()),
            ValueType::Int => ColumnData::I64(Vec::new()),
            ValueType::Bool => ColumnData::Bool(Vec::new()),
            ValueType::Str => ColumnData::Str(StrColumn::default()),
            ValueType::Vec2 => ColumnData::V2(Vec::new()),
        }
    }

    fn grow_to(&mut self, len: usize) {
        match self {
            ColumnData::F32(v) => v.resize(len, 0.0),
            ColumnData::I64(v) => v.resize(len, 0),
            ColumnData::Bool(v) => v.resize(len, false),
            ColumnData::Str(v) => v.codes.resize(len, NO_CODE),
            ColumnData::V2(v) => v.resize(len, [0.0, 0.0]),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::F32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::V2(v) => v.len(),
        }
    }

    fn value_type(&self) -> ValueType {
        match self {
            ColumnData::F32(_) => ValueType::Float,
            ColumnData::I64(_) => ValueType::Int,
            ColumnData::Bool(_) => ValueType::Bool,
            ColumnData::Str(_) => ValueType::Str,
            ColumnData::V2(_) => ValueType::Vec2,
        }
    }
}

/// One component column: typed data plus a presence bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    ty: ValueType,
    present: Vec<bool>,
    data: ColumnData,
    present_count: usize,
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(ty: ValueType) -> Self {
        Column {
            ty,
            present: Vec::new(),
            data: ColumnData::new(ty),
            present_count: 0,
        }
    }

    /// A column built whole from slot-indexed parts, typed by `data`:
    /// `present[slot]` says whether `data[slot]` is a value (a bulk load
    /// builds each column this way instead of writing it value by
    /// value). `None` when the two differ in length, or a string
    /// column's codes are not [`NO_CODE`] exactly where no value is.
    pub fn from_parts(present: Vec<bool>, data: ColumnData) -> Option<Column> {
        if present.len() != data.len() {
            return None;
        }
        if let ColumnData::Str(s) = &data {
            if (present.iter().zip(s.codes())).any(|(&p, &c)| p != (c != NO_CODE)) {
                return None;
            }
        }
        Some(Column {
            ty: data.value_type(),
            present_count: present.iter().filter(|&&p| p).count(),
            present,
            data,
        })
    }

    /// The component type.
    #[inline]
    pub fn ty(&self) -> ValueType {
        self.ty
    }

    /// Number of entities that currently have this component.
    #[inline]
    pub fn present_count(&self) -> usize {
        self.present_count
    }

    /// Grow the column to hold at least `len` slots.
    fn grow_to(&mut self, len: usize) {
        if len > self.present.len() {
            self.present.resize(len, false);
            self.data.grow_to(len);
        }
        debug_assert_eq!(self.present.len(), self.data.len());
    }

    /// Mark `slot` present, growing the column when it is beyond the
    /// end, and hand back the typed storage the value goes into.
    fn occupy(&mut self, slot: usize) -> &mut ColumnData {
        self.grow_to(slot + 1);
        if !self.present[slot] {
            self.present[slot] = true;
            self.present_count += 1;
        }
        &mut self.data
    }

    /// True when `slot` has a value.
    #[inline]
    pub fn has(&self, slot: usize) -> bool {
        self.present.get(slot).copied().unwrap_or(false)
    }

    /// Remove the value at `slot`; returns whether one was present.
    pub fn remove(&mut self, slot: usize) -> bool {
        if self.has(slot) {
            self.present[slot] = false;
            self.present_count -= 1;
            // reset storage so a string's code is freed with its last slot
            match &mut self.data {
                ColumnData::Str(v) => v.clear(slot),
                ColumnData::F32(v) => v[slot] = 0.0,
                ColumnData::I64(v) => v[slot] = 0,
                ColumnData::Bool(v) => v[slot] = false,
                ColumnData::V2(v) => v[slot] = [0.0, 0.0],
            }
            true
        } else {
            false
        }
    }

    /// Set `slot` from a dynamic value; the value type must match.
    pub fn set(&mut self, slot: usize, value: &Value) -> Result<(), ValueType> {
        self.put(slot, value.clone())
    }

    /// [`Column::set`] taking the value: a string already in the column's
    /// dictionary is not copied.
    #[inline]
    pub fn put(&mut self, slot: usize, value: Value) -> Result<(), ValueType> {
        if value.value_type() != self.ty {
            return Err(self.ty);
        }
        match (self.occupy(slot), value) {
            (ColumnData::F32(v), Value::Float(x)) => v[slot] = x,
            (ColumnData::I64(v), Value::Int(x)) => v[slot] = x,
            (ColumnData::Bool(v), Value::Bool(x)) => v[slot] = x,
            (ColumnData::Str(v), Value::Str(x)) => v.put(slot, &x),
            (ColumnData::V2(v), Value::Vec2(x, y)) => v[slot] = [x, y],
            _ => unreachable!("type checked above"),
        }
        Ok(())
    }

    /// Dynamic value at `slot`, if present.
    pub fn get(&self, slot: usize) -> Option<Value> {
        if !self.has(slot) {
            return None;
        }
        Some(match &self.data {
            ColumnData::F32(v) => Value::Float(v[slot]),
            ColumnData::I64(v) => Value::Int(v[slot]),
            ColumnData::Bool(v) => Value::Bool(v[slot]),
            ColumnData::Str(v) => Value::Str(v.decode(v.codes[slot])?.to_string()),
            ColumnData::V2(v) => Value::Vec2(v[slot][0], v[slot][1]),
        })
    }

    // ---- typed fast paths (hot loops avoid Value boxing) ----

    /// `f32` value at `slot` (None when absent or wrong type).
    #[inline]
    pub fn get_f32(&self, slot: usize) -> Option<f32> {
        match &self.data {
            ColumnData::F32(v) if self.has(slot) => Some(v[slot]),
            _ => None,
        }
    }

    /// Store an `f32`; returns false when the column is not float-typed.
    #[inline]
    pub fn set_f32(&mut self, slot: usize, value: f32) -> bool {
        if self.ty != ValueType::Float {
            return false;
        }
        match self.occupy(slot) {
            ColumnData::F32(v) => v[slot] = value,
            _ => unreachable!("type checked above"),
        }
        true
    }

    /// `i64` value at `slot`.
    #[inline]
    pub fn get_i64(&self, slot: usize) -> Option<i64> {
        match &self.data {
            ColumnData::I64(v) if self.has(slot) => Some(v[slot]),
            _ => None,
        }
    }

    /// `bool` value at `slot`.
    #[inline]
    pub fn get_bool(&self, slot: usize) -> Option<bool> {
        match &self.data {
            ColumnData::Bool(v) if self.has(slot) => Some(v[slot]),
            _ => None,
        }
    }

    /// `&str` view at `slot`, decoded through the dictionary — the
    /// zero-allocation read hot dispatch loops (script-binding lookup,
    /// VM string compares) rely on.
    #[inline]
    pub fn get_str(&self, slot: usize) -> Option<&str> {
        match &self.data {
            ColumnData::Str(v) => v.decode(v.code(slot)?),
            _ => None,
        }
    }

    /// `[f32; 2]` value at `slot`.
    #[inline]
    pub fn get_v2(&self, slot: usize) -> Option<[f32; 2]> {
        match &self.data {
            ColumnData::V2(v) if self.has(slot) => Some(v[slot]),
            _ => None,
        }
    }

    /// Numeric view (floats and ints coerce to f64) at `slot`.
    #[inline]
    pub fn get_number(&self, slot: usize) -> Option<f64> {
        match &self.data {
            ColumnData::F32(v) if self.has(slot) => Some(v[slot] as f64),
            ColumnData::I64(v) if self.has(slot) => Some(v[slot] as f64),
            _ => None,
        }
    }

    /// The typed storage, slot-indexed and as long as
    /// [`Column::presence`] — what the block filter kernels and the
    /// aggregate folds read a block of slots from. A slot's value counts
    /// only where its presence bit is set.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Presence bitmap (slot-indexed).
    pub fn presence(&self) -> &[bool] {
        &self.present
    }

    /// Iterate `(slot, value)` pairs of present entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Value)> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(move |(slot, _)| (slot, self.get(slot).expect("present implies value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip_all_types() {
        for (ty, val) in [
            (ValueType::Float, Value::Float(2.5)),
            (ValueType::Int, Value::Int(-3)),
            (ValueType::Bool, Value::Bool(true)),
            (ValueType::Str, Value::Str("axe".into())),
            (ValueType::Vec2, Value::Vec2(1.0, 2.0)),
        ] {
            let mut c = Column::new(ty);
            assert_eq!(c.get(0), None);
            c.set(5, &val).unwrap();
            assert_eq!(c.get(5), Some(val));
            assert!(c.has(5));
            assert!(!c.has(4));
            assert_eq!(c.present_count(), 1);
        }
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(ValueType::Float);
        assert_eq!(c.set(0, &Value::Int(1)), Err(ValueType::Float));
        assert_eq!(c.present_count(), 0);
    }

    #[test]
    fn remove_clears_presence_and_value() {
        let mut c = Column::new(ValueType::Str);
        c.set(2, &Value::Str("sword".into())).unwrap();
        assert!(c.remove(2));
        assert!(!c.remove(2));
        assert_eq!(c.get(2), None);
        assert_eq!(c.present_count(), 0);
        // slot reuse sees fresh storage
        c.set(2, &Value::Str("bow".into())).unwrap();
        assert_eq!(c.get(2), Some(Value::Str("bow".into())));
    }

    #[test]
    fn fast_paths() {
        let mut c = Column::new(ValueType::Float);
        assert!(c.set_f32(3, 7.5));
        assert_eq!(c.get_f32(3), Some(7.5));
        assert_eq!(c.get_f32(2), None);
        assert_eq!(c.get_number(3), Some(7.5));
        assert!(!Column::new(ValueType::Int).clone().set_f32(0, 1.0));

        let mut i = Column::new(ValueType::Int);
        i.set(0, &Value::Int(9)).unwrap();
        assert_eq!(i.get_i64(0), Some(9));
        assert_eq!(i.get_number(0), Some(9.0));

        let mut b = Column::new(ValueType::Bool);
        b.set(1, &Value::Bool(true)).unwrap();
        assert_eq!(b.get_bool(1), Some(true));

        let mut v = Column::new(ValueType::Vec2);
        v.set(0, &Value::Vec2(3.0, 4.0)).unwrap();
        assert_eq!(v.get_v2(0), Some([3.0, 4.0]));
    }

    #[test]
    fn from_parts_equals_value_by_value() {
        let mut c = Column::new(ValueType::Int);
        c.set(1, &Value::Int(10)).unwrap();
        c.set(3, &Value::Int(-4)).unwrap();
        let parts = Column::from_parts(
            vec![false, true, false, true],
            ColumnData::I64(vec![0, 10, 0, -4]),
        );
        assert_eq!(parts, Some(c));
        assert_eq!(
            Column::from_parts(vec![true], ColumnData::Bool(vec![])),
            None
        );
    }

    #[test]
    fn slice_access() {
        let mut c = Column::new(ValueType::Float);
        c.set_f32(0, 1.0);
        c.set_f32(2, 3.0);
        assert_eq!(c.data(), &ColumnData::F32(vec![1.0, 0.0, 3.0]));
        assert_eq!(c.presence(), &[true, false, true]);
        assert_eq!(Column::new(ValueType::Int).data(), &ColumnData::I64(Vec::new()));
    }

    #[test]
    fn iter_present_only() {
        let mut c = Column::new(ValueType::Int);
        c.set(1, &Value::Int(10)).unwrap();
        c.set(4, &Value::Int(40)).unwrap();
        let pairs: Vec<(usize, Value)> = c.iter().collect();
        assert_eq!(pairs, vec![(1, Value::Int(10)), (4, Value::Int(40))]);
    }
}
