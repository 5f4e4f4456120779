//! Conjunctive predicates evaluated directly over raw row bytes.
//!
//! The Relational Fabric pushes *selection* into the hardware (§IV-B): the
//! device evaluates simple comparisons against constants while gathering.
//! [`ColumnPredicate::eval_raw`] is exactly that comparator — it takes a raw
//! row image and decodes only the predicate's field. The same code path is
//! used by the software engines so that every engine agrees on semantics.

use crate::error::{FabricError, Result};
use crate::geometry::FieldSlice;
use crate::schema::ColumnType;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator for a column-vs-constant predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Does `ord` (of `lhs.cmp(rhs)`) satisfy this operator?
    #[inline]
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A single `column <op> constant` comparison.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ColumnPredicate {
    /// Where the column lives inside a raw row.
    pub field: FieldSlice,
    pub op: CmpOp,
    pub value: Value,
}

impl ColumnPredicate {
    pub fn new(field: FieldSlice, op: CmpOp, value: Value) -> Self {
        ColumnPredicate { field, op, value }
    }

    /// Whether the literal compares with the field, by
    /// [`Value::compare`]'s rule: text with text, numbers with numbers.
    /// `TypeMismatch` otherwise, the error [`Self::eval_raw`] would raise
    /// on every row.
    pub fn check(&self) -> Result<()> {
        let text_field = matches!(self.field.ty, ColumnType::FixedStr(_));
        if text_field == matches!(self.value, Value::Str(_)) {
            return Ok(());
        }
        Err(FabricError::TypeMismatch {
            expected: format!("a literal comparable with {:?}", self.field.ty),
            found: format!("{self}"),
        })
    }

    /// Evaluate against the raw bytes of one row.
    pub fn eval_raw(&self, row: &[u8]) -> Result<bool> {
        let bytes = &row[self.field.offset..self.field.offset + self.field.width()];
        let v = Value::decode(self.field.ty, bytes);
        Ok(self.op.matches(v.compare(&self.value)?))
    }
}

impl fmt::Display for ColumnPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "col{} {} {}", self.field.column, self.op, self.value)
    }
}

/// A conjunction (`AND`) of column predicates. Empty means "always true".
#[derive(Debug, Clone, PartialEq, Default, Hash)]
pub struct Predicate {
    conjuncts: Vec<ColumnPredicate>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always_true() -> Self {
        Predicate {
            conjuncts: Vec::new(),
        }
    }

    pub fn new(conjuncts: Vec<ColumnPredicate>) -> Self {
        Predicate { conjuncts }
    }

    pub fn and(mut self, p: ColumnPredicate) -> Self {
        self.conjuncts.push(p);
        self
    }

    pub fn conjuncts(&self) -> &[ColumnPredicate] {
        &self.conjuncts
    }

    pub fn is_trivial(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Evaluate the whole conjunction against one raw row.
    ///
    /// Short-circuits on the first failing conjunct, like both the software
    /// engines and the hardware comparator chain would.
    pub fn eval_raw(&self, row: &[u8]) -> Result<bool> {
        for c in &self.conjuncts {
            if !c.eval_raw(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// [`ColumnPredicate::check`] of every conjunct.
    pub fn check(&self) -> Result<()> {
        self.conjuncts.iter().try_for_each(ColumnPredicate::check)
    }

    /// The distinct columns this predicate touches, in first-seen order.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        for c in &self.conjuncts {
            if !cols.contains(&c.field.column) {
                cols.push(c.field.column);
            }
        }
        cols
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return f.write_str("true");
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn field(offset: usize, ty: ColumnType) -> FieldSlice {
        FieldSlice {
            column: 0,
            offset,
            ty,
        }
    }

    #[test]
    fn cmp_op_matrix() {
        use Ordering::*;
        assert!(CmpOp::Eq.matches(Equal) && !CmpOp::Eq.matches(Less));
        assert!(CmpOp::Ne.matches(Less) && !CmpOp::Ne.matches(Equal));
        assert!(CmpOp::Lt.matches(Less) && !CmpOp::Lt.matches(Equal));
        assert!(CmpOp::Le.matches(Equal) && !CmpOp::Le.matches(Greater));
        assert!(CmpOp::Gt.matches(Greater) && !CmpOp::Gt.matches(Equal));
        assert!(CmpOp::Ge.matches(Equal) && !CmpOp::Ge.matches(Less));
    }

    #[test]
    fn flipped_is_involutive_on_ordering() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn eval_raw_on_row_bytes() {
        // Row: [i32 = 42][i32 = -7]
        let mut row = vec![0u8; 8];
        row[..4].copy_from_slice(&42i32.to_le_bytes());
        row[4..].copy_from_slice(&(-7i32).to_le_bytes());

        let p = ColumnPredicate::new(field(0, ColumnType::I32), CmpOp::Gt, Value::I32(10));
        assert!(p.eval_raw(&row).unwrap());
        let p = ColumnPredicate::new(field(4, ColumnType::I32), CmpOp::Ge, Value::I32(0));
        assert!(!p.eval_raw(&row).unwrap());
    }

    #[test]
    fn conjunction_short_circuits_semantics() {
        let mut row = vec![0u8; 8];
        row[..4].copy_from_slice(&5i32.to_le_bytes());
        row[4..].copy_from_slice(&100i32.to_le_bytes());

        let yes = Predicate::always_true()
            .and(ColumnPredicate::new(
                field(0, ColumnType::I32),
                CmpOp::Eq,
                Value::I32(5),
            ))
            .and(ColumnPredicate::new(
                field(4, ColumnType::I32),
                CmpOp::Lt,
                Value::I32(200),
            ));
        assert!(yes.eval_raw(&row).unwrap());

        let no = Predicate::always_true()
            .and(ColumnPredicate::new(
                field(0, ColumnType::I32),
                CmpOp::Ne,
                Value::I32(5),
            ))
            .and(ColumnPredicate::new(
                field(4, ColumnType::I32),
                CmpOp::Lt,
                Value::I32(200),
            ));
        assert!(!no.eval_raw(&row).unwrap());
    }

    #[test]
    fn trivial_predicate_accepts_everything() {
        assert!(Predicate::always_true().eval_raw(&[]).unwrap());
        assert!(Predicate::always_true().is_trivial());
    }

    #[test]
    fn columns_dedup_in_order() {
        let f0 = FieldSlice {
            column: 3,
            offset: 12,
            ty: ColumnType::I32,
        };
        let f1 = FieldSlice {
            column: 1,
            offset: 4,
            ty: ColumnType::I32,
        };
        let p = Predicate::always_true()
            .and(ColumnPredicate::new(f0, CmpOp::Gt, Value::I32(0)))
            .and(ColumnPredicate::new(f1, CmpOp::Lt, Value::I32(9)))
            .and(ColumnPredicate::new(f0, CmpOp::Lt, Value::I32(100)));
        assert_eq!(p.columns(), vec![3, 1]);
    }

    #[test]
    fn string_predicate() {
        let mut row = vec![0u8; 4];
        row[..1].copy_from_slice(b"R");
        let f = FieldSlice {
            column: 0,
            offset: 0,
            ty: ColumnType::FixedStr(4),
        };
        let p = ColumnPredicate::new(f, CmpOp::Eq, Value::Str("R".into()));
        assert!(p.eval_raw(&row).unwrap());
    }
}
