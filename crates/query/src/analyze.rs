//! Pre-execution plan verification.
//!
//! Every bound plan passes through [`analyze`] before any executor touches
//! simulated memory. The analyzer re-derives, from the plan alone, every
//! invariant the execution paths rely on — and reports violations as
//! structured [`PlanDiagnostic`]s instead of letting them surface as slot
//! panics, arena faults, or silent wrong answers deep inside an engine.
//!
//! The checks, in order:
//!
//! 1. **projectivity sanity** — the touched-column list contains no
//!    duplicates and no ids outside the schema (a duplicate would make two
//!    slots alias one column; an out-of-range id cannot be scanned at all);
//! 2. **slot ranges** — predicates, output expressions, GROUP BY, and
//!    ORDER BY only reference slots/positions that exist;
//! 3. **type checking** — predicate literals are comparable with their
//!    column (strings only against `FixedStr`, numerics only against
//!    numerics), arithmetic only ranges over numeric columns, and `SUM` /
//!    `AVG` aggregate numeric inputs;
//! 4. **geometry verification** — the ephemeral-variable geometry the RM
//!    path would configure is built and admitted against the device
//!    configuration ([`relmem::VerifiedGeometry`]): column-group offsets and
//!    widths inside the row, non-overlapping destination ranges, and output
//!    rows that fit the device's staging-buffer/batch layout.
//!
//! The result is a [`VerifiedQuery`] — the only plan type the executors in
//! [`crate::exec`] accept, so an unverified plan cannot reach them by
//! construction.

use crate::bind::{BoundQuery, OutputItem};
use crate::catalog::TableEntry;
use fabric_types::{AggFunc, ColumnId, ColumnType, Expr, FabricError, Schema, Value};
use relmem::{RmConfig, VerifiedGeometry};
use std::fmt;

/// One structured finding about a bound plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDiagnostic {
    /// A touched-column id does not exist in the table schema.
    ProjectionColumnOutOfRange { column: ColumnId, columns: usize },
    /// The same column id appears twice in the touched list.
    DuplicateProjectionColumn { column: ColumnId },
    /// A slot reference (predicate / expression / GROUP BY) is outside the
    /// touched list.
    SlotOutOfRange {
        context: &'static str,
        slot: usize,
        slots: usize,
    },
    /// A predicate compares a column with a literal of an incomparable type.
    PredicateTypeMismatch {
        column: String,
        column_type: String,
        literal_type: String,
    },
    /// `SUM` / `AVG` over a non-numeric input.
    AggregateTypeMismatch {
        func: &'static str,
        column: String,
        column_type: String,
    },
    /// Arithmetic over a non-numeric column.
    NonNumericArithmetic { column: String, column_type: String },
    /// An ORDER BY key points past the output row.
    OrderByOutOfRange { position: usize, arity: usize },
    /// The RM-path geometry failed device admission (bounds, overlap, or
    /// buffer-fit); the reason is the device's own rejection message.
    GeometryRejected { reason: String },
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDiagnostic::ProjectionColumnOutOfRange { column, columns } => {
                write!(
                    f,
                    "projected column id {column} out of range (schema has {columns})"
                )
            }
            PlanDiagnostic::DuplicateProjectionColumn { column } => {
                write!(f, "column id {column} projected more than once")
            }
            PlanDiagnostic::SlotOutOfRange {
                context,
                slot,
                slots,
            } => {
                write!(
                    f,
                    "{context} references slot {slot}, but only {slots} are touched"
                )
            }
            PlanDiagnostic::PredicateTypeMismatch {
                column,
                column_type,
                literal_type,
            } => {
                write!(
                    f,
                    "predicate compares `{column}` ({column_type}) with {literal_type}"
                )
            }
            PlanDiagnostic::AggregateTypeMismatch {
                func,
                column,
                column_type,
            } => {
                write!(f, "{func}() over non-numeric `{column}` ({column_type})")
            }
            PlanDiagnostic::NonNumericArithmetic {
                column,
                column_type,
            } => {
                write!(f, "arithmetic over non-numeric `{column}` ({column_type})")
            }
            PlanDiagnostic::OrderByOutOfRange { position, arity } => {
                write!(
                    f,
                    "ORDER BY position {position} out of range for {arity} output columns"
                )
            }
            PlanDiagnostic::GeometryRejected { reason } => {
                write!(f, "ephemeral geometry rejected: {reason}")
            }
        }
    }
}

/// All findings for one plan; returned when verification fails.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisError {
    pub diagnostics: Vec<PlanDiagnostic>,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan rejected:")?;
        for d in &self.diagnostics {
            write!(f, " [{d}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalysisError {}

impl From<AnalysisError> for FabricError {
    fn from(e: AnalysisError) -> Self {
        FabricError::Sql(e.to_string())
    }
}

/// A plan that passed every check in [`analyze`]. The executors only accept
/// this type; its fields are private so the analyzer is the sole source.
/// It owns its plan, so a prepared statement keeps the one [`analyze`]
/// returned and every execution borrows it.
#[derive(Debug)]
pub struct VerifiedQuery {
    bound: BoundQuery,
    geometry: VerifiedGeometry,
}

impl VerifiedQuery {
    /// The underlying bound plan.
    pub fn bound(&self) -> &BoundQuery {
        &self.bound
    }

    /// The device-admitted geometry for the RM access path.
    pub fn geometry(&self) -> &VerifiedGeometry {
        &self.geometry
    }

    /// The static type of every output item, in item order: a column
    /// reference has its column's type, a literal its own, arithmetic is
    /// `f64`; `count` is `i64`, `sum` / `avg` are `f64`, and `min` / `max`
    /// keep the type of the expression they range over. These are the
    /// types the executor's result buffers are built with.
    pub(crate) fn output_types(&self) -> Result<Vec<ColumnType>, FabricError> {
        let fields = &self.geometry.geometry().fields;
        let expr_type = |e: &Expr| match e {
            Expr::Col(slot) => fields.get(*slot).map(|f| f.ty).ok_or_else(|| {
                FabricError::Internal(format!("output slot {slot} outside the verified geometry"))
            }),
            Expr::Const(v) => Ok(v.column_type()),
            _ => Ok(ColumnType::F64),
        };
        self.bound
            .items
            .iter()
            .map(|item| match item {
                OutputItem::Expr(e) | OutputItem::Agg(AggFunc::Min | AggFunc::Max, e) => {
                    expr_type(e)
                }
                OutputItem::Agg(AggFunc::Count, _) => Ok(ColumnType::I64),
                OutputItem::Agg(AggFunc::Sum | AggFunc::Avg, _) => Ok(ColumnType::F64),
            })
            .collect()
    }
}

/// Verify `bound` against `entry`'s schema and the RM device configuration.
/// The verified plan holds a copy of `bound`.
pub fn analyze(
    entry: &TableEntry,
    bound: &BoundQuery,
    rm: &RmConfig,
) -> Result<VerifiedQuery, AnalysisError> {
    let schema = entry.schema();
    let mut diags = Vec::new();

    check_projectivity(schema, bound, &mut diags);
    check_predicates(schema, bound, &mut diags);
    check_items(schema, bound, &mut diags);
    check_grouping_and_order(bound, &mut diags);

    // Geometry construction needs a sane touched list; skip it (rather than
    // report cascading noise) when projectivity already failed.
    let geometry = if diags.is_empty() {
        match entry
            .rows
            .geometry(&bound.touched)
            .and_then(|g| VerifiedGeometry::new(rm, g))
        {
            Ok(g) => Some(g),
            Err(e) => {
                diags.push(PlanDiagnostic::GeometryRejected {
                    reason: e.to_string(),
                });
                None
            }
        }
    } else {
        None
    };

    match geometry {
        Some(geometry) if diags.is_empty() => Ok(VerifiedQuery {
            bound: bound.clone(),
            geometry,
        }),
        _ => Err(AnalysisError { diagnostics: diags }),
    }
}

fn check_projectivity(schema: &Schema, bound: &BoundQuery, diags: &mut Vec<PlanDiagnostic>) {
    for (i, &col) in bound.touched.iter().enumerate() {
        if col >= schema.len() {
            diags.push(PlanDiagnostic::ProjectionColumnOutOfRange {
                column: col,
                columns: schema.len(),
            });
        }
        if bound.touched[..i].contains(&col) {
            diags.push(PlanDiagnostic::DuplicateProjectionColumn { column: col });
        }
    }
}

/// Name and type of the column behind `slot`, when resolvable.
fn slot_column<'a>(
    schema: &'a Schema,
    bound: &BoundQuery,
    slot: usize,
) -> Option<&'a fabric_types::ColumnDef> {
    bound
        .touched
        .get(slot)
        .and_then(|&col| schema.column(col).ok())
}

fn check_predicates(schema: &Schema, bound: &BoundQuery, diags: &mut Vec<PlanDiagnostic>) {
    for (slot, _, lit) in &bound.preds {
        if *slot >= bound.touched.len() {
            diags.push(PlanDiagnostic::SlotOutOfRange {
                context: "predicate",
                slot: *slot,
                slots: bound.touched.len(),
            });
            continue;
        }
        let Some(def) = slot_column(schema, bound, *slot) else {
            continue;
        };
        let lit_is_str = matches!(lit, Value::Str(_));
        if lit_is_str != matches!(def.ty, ColumnType::FixedStr(_)) {
            diags.push(PlanDiagnostic::PredicateTypeMismatch {
                column: def.name.clone(),
                column_type: def.ty.name(),
                literal_type: lit.column_type().name(),
            });
        }
    }
}

fn check_items(schema: &Schema, bound: &BoundQuery, diags: &mut Vec<PlanDiagnostic>) {
    for item in &bound.items {
        let (expr, agg): (&Expr, Option<AggFunc>) = match item {
            OutputItem::Expr(e) => (e, None),
            OutputItem::Agg(f, e) => (e, Some(*f)),
        };
        let mut slots = Vec::new();
        expr.collect_columns(&mut slots);
        for slot in slots {
            if slot >= bound.touched.len() {
                diags.push(PlanDiagnostic::SlotOutOfRange {
                    context: "output expression",
                    slot,
                    slots: bound.touched.len(),
                });
                continue;
            }
            let Some(def) = slot_column(schema, bound, slot) else {
                continue;
            };
            if def.ty.is_numeric() {
                continue;
            }
            // A non-numeric column may pass through bare (projection, or
            // MIN/MAX/COUNT which compare values); it may not feed
            // arithmetic or a summing aggregate.
            if expr.ops() > 0 {
                diags.push(PlanDiagnostic::NonNumericArithmetic {
                    column: def.name.clone(),
                    column_type: def.ty.name(),
                });
            } else if matches!(agg, Some(AggFunc::Sum) | Some(AggFunc::Avg)) {
                diags.push(PlanDiagnostic::AggregateTypeMismatch {
                    func: match agg {
                        Some(AggFunc::Sum) => "sum",
                        _ => "avg",
                    },
                    column: def.name.clone(),
                    column_type: def.ty.name(),
                });
            }
        }
    }
}

fn check_grouping_and_order(bound: &BoundQuery, diags: &mut Vec<PlanDiagnostic>) {
    for &slot in &bound.group_by {
        if slot >= bound.touched.len() {
            diags.push(PlanDiagnostic::SlotOutOfRange {
                context: "GROUP BY",
                slot,
                slots: bound.touched.len(),
            });
        }
    }
    for &(pos, _) in &bound.order_by {
        if pos >= bound.arity() {
            diags.push(PlanDiagnostic::OrderByOutOfRange {
                position: pos,
                arity: bound.arity(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use fabric_sim::{MemoryHierarchy, SimConfig};
    use fabric_types::{CmpOp, ColumnType, Schema};
    use rowstore::RowTable;

    /// Catalog with one table: id i64, flag char(1), qty f64, d date.
    fn catalog() -> Catalog {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("flag", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
            ("d", ColumnType::Date),
        ]);
        let t = RowTable::create(&mut mem, schema, 8).unwrap();
        let mut c = Catalog::new();
        c.register_rows("t", t);
        c
    }

    fn plain(touched: Vec<usize>) -> BoundQuery {
        BoundQuery {
            table: "t".into(),
            items: (0..touched.len())
                .map(|s| OutputItem::Expr(Expr::col(s)))
                .collect(),
            touched,
            preds: vec![],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    fn diags(c: &Catalog, b: &BoundQuery) -> Vec<PlanDiagnostic> {
        match analyze(c.get("t").unwrap(), b, &RmConfig::prototype()) {
            Ok(_) => vec![],
            Err(e) => e.diagnostics,
        }
    }

    #[test]
    fn well_formed_plan_verifies() {
        let c = catalog();
        let mut b = plain(vec![0, 2]);
        b.preds = vec![(0, CmpOp::Gt, Value::I64(3))];
        let v = analyze(c.get("t").unwrap(), &b, &RmConfig::prototype()).unwrap();
        assert_eq!(v.bound().touched, vec![0, 2]);
        assert_eq!(v.geometry().geometry().fields.len(), 2);
    }

    #[test]
    fn rejects_out_of_range_projection() {
        let c = catalog();
        let d = diags(&c, &plain(vec![0, 9]));
        assert!(
            d.contains(&PlanDiagnostic::ProjectionColumnOutOfRange {
                column: 9,
                columns: 4
            }),
            "{d:?}"
        );
    }

    #[test]
    fn rejects_duplicate_projection() {
        let c = catalog();
        let d = diags(&c, &plain(vec![2, 0, 2]));
        assert!(
            d.contains(&PlanDiagnostic::DuplicateProjectionColumn { column: 2 }),
            "{d:?}"
        );
    }

    #[test]
    fn rejects_type_mismatched_predicate_both_directions() {
        let c = catalog();
        // String literal against a numeric column.
        let mut b = plain(vec![0]);
        b.preds = vec![(0, CmpOp::Eq, Value::Str("x".into()))];
        let d = diags(&c, &b);
        assert!(
            matches!(&d[..], [PlanDiagnostic::PredicateTypeMismatch { column, .. }] if column == "id"),
            "{d:?}"
        );
        // Numeric literal against a string column.
        let mut b = plain(vec![1]);
        b.preds = vec![(0, CmpOp::Eq, Value::I64(1))];
        let d = diags(&c, &b);
        assert!(
            matches!(&d[..], [PlanDiagnostic::PredicateTypeMismatch { column, .. }] if column == "flag"),
            "{d:?}"
        );
    }

    #[test]
    fn rejects_out_of_range_slots_everywhere() {
        let c = catalog();
        let mut b = plain(vec![0]);
        b.preds = vec![(3, CmpOp::Eq, Value::I64(1))];
        b.items.push(OutputItem::Expr(Expr::col(7)));
        b.group_by = vec![5];
        b.order_by = vec![(9, false)];
        let d = diags(&c, &b);
        assert!(d.contains(&PlanDiagnostic::SlotOutOfRange {
            context: "predicate",
            slot: 3,
            slots: 1
        }));
        assert!(d.contains(&PlanDiagnostic::SlotOutOfRange {
            context: "output expression",
            slot: 7,
            slots: 1
        }));
        assert!(d.contains(&PlanDiagnostic::SlotOutOfRange {
            context: "GROUP BY",
            slot: 5,
            slots: 1
        }));
        assert!(d.contains(&PlanDiagnostic::OrderByOutOfRange {
            position: 9,
            arity: 2
        }));
    }

    #[test]
    fn rejects_summing_and_arithmetic_over_strings() {
        let c = catalog();
        let mut b = plain(vec![1]);
        b.items = vec![OutputItem::Agg(AggFunc::Sum, Expr::col(0))];
        b.group_by = vec![];
        let d = diags(&c, &b);
        assert!(
            matches!(
                &d[..],
                [PlanDiagnostic::AggregateTypeMismatch { func: "sum", .. }]
            ),
            "{d:?}"
        );
        let mut b = plain(vec![1]);
        b.items = vec![OutputItem::Expr(Expr::mul(
            Expr::col(0),
            Expr::lit(Value::I64(2)),
        ))];
        let d = diags(&c, &b);
        assert!(
            matches!(&d[..], [PlanDiagnostic::NonNumericArithmetic { .. }]),
            "{d:?}"
        );
    }

    #[test]
    fn min_max_count_over_strings_are_fine() {
        let c = catalog();
        let mut b = plain(vec![1]);
        b.items = vec![
            OutputItem::Agg(AggFunc::Min, Expr::col(0)),
            OutputItem::Agg(AggFunc::Max, Expr::col(0)),
            OutputItem::Agg(AggFunc::Count, Expr::lit(Value::I64(1))),
        ];
        assert!(analyze(c.get("t").unwrap(), &b, &RmConfig::prototype()).is_ok());
    }

    #[test]
    fn diagnostics_render_for_humans() {
        let e = AnalysisError {
            diagnostics: vec![
                PlanDiagnostic::DuplicateProjectionColumn { column: 2 },
                PlanDiagnostic::OrderByOutOfRange {
                    position: 9,
                    arity: 2,
                },
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("plan rejected"), "{msg}");
        assert!(msg.contains("column id 2"), "{msg}");
        assert!(msg.contains("position 9"), "{msg}");
        let fe: FabricError = e.into();
        assert!(matches!(fe, FabricError::Sql(_)));
    }
}
