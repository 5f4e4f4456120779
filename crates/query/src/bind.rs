//! Name resolution: AST → typed logical plan over column slots.

use crate::catalog::Catalog;
use crate::parser::{AstExpr, AstItem, AstOrderTarget, AstPred, SelectStmt};
use fabric_types::{AggFunc, CmpOp, ColumnId, Expr, FabricError, Result, Value};

/// One output column of the bound query.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum OutputItem {
    /// Plain expression over slots (must be a group-by column when the
    /// query aggregates).
    Expr(Expr),
    /// Aggregate over an expression (`count(*)` aggregates the constant 1).
    Agg(AggFunc, Expr),
}

/// Every [`BoundQuery::class`], by [`BoundQuery::class_index`].
pub(crate) const CLASSES: [&str; 3] = ["scan", "q6", "q1"];

/// A bound query: everything resolved to slot indices over `touched`.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    pub table: String,
    /// Table columns the query touches, in slot order; every `Expr::Col`
    /// below indexes into this list.
    pub touched: Vec<ColumnId>,
    /// Conjunctive predicate over slots.
    pub preds: Vec<(usize, CmpOp, Value)>,
    pub items: Vec<OutputItem>,
    /// Slots of the GROUP BY columns.
    pub group_by: Vec<usize>,
    /// `(output position, descending)` sort keys.
    pub order_by: Vec<(usize, bool)>,
    /// Row-count cap applied after sorting.
    pub limit: Option<usize>,
}

impl BoundQuery {
    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(|i| matches!(i, OutputItem::Agg(..)))
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.items.len()
    }

    /// Latency-histogram class of this query, named after the TPC-H
    /// shapes the figure benchmarks reproduce: `"q1"` for grouped
    /// aggregation, `"q6"` for a global (ungrouped) aggregate, `"scan"`
    /// for everything else. The engine buckets per-query latencies under
    /// `query.class.<class>.{cold,hit}.latency_cycles`; percentiles are
    /// read from those histograms when rendered.
    pub fn class(&self) -> &'static str {
        CLASSES[self.class_index()]
    }

    /// This query's position in [`CLASSES`].
    pub(crate) fn class_index(&self) -> usize {
        match (self.has_aggregates(), self.group_by.is_empty()) {
            (false, _) => 0,
            (true, true) => 1,
            (true, false) => 2,
        }
    }
}

struct Binder<'a> {
    catalog_schema: &'a fabric_types::Schema,
    touched: Vec<ColumnId>,
}

impl Binder<'_> {
    fn slot(&mut self, name: &str) -> Result<usize> {
        let id = self.catalog_schema.column_id(name)?;
        if let Some(pos) = self.touched.iter().position(|&c| c == id) {
            return Ok(pos);
        }
        self.touched.push(id);
        Ok(self.touched.len() - 1)
    }

    fn literal(e: &AstExpr) -> Result<Value> {
        Ok(match e {
            AstExpr::Int(v) => Value::I64(*v),
            AstExpr::Float(v) => Value::F64(*v),
            AstExpr::Str(s) => Value::Str(s.clone()),
            AstExpr::Date(d) => Value::Date(*d),
            other => {
                return Err(FabricError::Sql(format!(
                    "expected a literal, found {other:?}"
                )))
            }
        })
    }

    fn expr(&mut self, e: &AstExpr) -> Result<Expr> {
        Ok(match e {
            AstExpr::Col(name) => Expr::Col(self.slot(name)?),
            AstExpr::Int(v) => Expr::lit(Value::I64(*v)),
            AstExpr::Float(v) => Expr::lit(Value::F64(*v)),
            AstExpr::Str(s) => Expr::lit(Value::Str(s.clone())),
            AstExpr::Date(d) => Expr::lit(Value::Date(*d)),
            AstExpr::Bin(a, op, b) => {
                let (a, b) = (self.expr(a)?, self.expr(b)?);
                match op {
                    '+' => Expr::add(a, b),
                    '-' => Expr::sub(a, b),
                    '*' => Expr::mul(a, b),
                    '/' => Expr::div(a, b),
                    other => return Err(FabricError::Sql(format!("bad operator `{other}`"))),
                }
            }
        })
    }
}

/// Bind `stmt` against `catalog`.
pub fn bind(catalog: &Catalog, stmt: &SelectStmt) -> Result<BoundQuery> {
    let entry = catalog.get(&stmt.table)?;
    let schema = entry.schema();
    let mut binder = Binder {
        catalog_schema: schema,
        touched: Vec::new(),
    };

    // Predicates first or later — slot order just follows first use.
    let mut items = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        items.push(match item {
            AstItem::Expr(e) => OutputItem::Expr(binder.expr(e)?),
            AstItem::Agg(f, Some(e)) => OutputItem::Agg(*f, binder.expr(e)?),
            AstItem::Agg(f, None) => OutputItem::Agg(*f, Expr::lit(Value::I64(1))),
        });
    }

    let mut preds = Vec::with_capacity(stmt.preds.len());
    for AstPred { col, op, literal } in &stmt.preds {
        let slot = binder.slot(col)?;
        let lit = Binder::literal(literal)?;
        // Cheap type sanity: strings only compare with strings.
        let col_ty = schema.column(binder.touched[slot])?.ty;
        let lit_is_str = matches!(lit, Value::Str(_));
        if lit_is_str != matches!(col_ty, fabric_types::ColumnType::FixedStr(_)) {
            return Err(FabricError::Sql(format!(
                "predicate on `{col}` compares {} with {}",
                col_ty.name(),
                lit.column_type().name()
            )));
        }
        preds.push((slot, *op, lit));
    }

    let mut group_by = Vec::with_capacity(stmt.group_by.len());
    for name in &stmt.group_by {
        group_by.push(binder.slot(name)?);
    }

    // Resolve ORDER BY keys to output positions.
    let mut order_by = Vec::with_capacity(stmt.order_by.len());
    for key in &stmt.order_by {
        let pos = match &key.key {
            AstOrderTarget::Position(p) => {
                if *p == 0 || *p > items.len() {
                    return Err(FabricError::Sql(format!(
                        "ORDER BY position {p} out of range (1..={})",
                        items.len()
                    )));
                }
                p - 1
            }
            AstOrderTarget::Column(name) => {
                let id = schema.column_id(name)?;
                items
                    .iter()
                    .position(|item| {
                        matches!(item, OutputItem::Expr(Expr::Col(s))
                            if binder.touched.get(*s) == Some(&id))
                    })
                    .ok_or_else(|| {
                        FabricError::Sql(format!(
                            "ORDER BY column `{name}` must appear as a plain output item"
                        ))
                    })?
            }
        };
        order_by.push((pos, key.desc));
    }

    // A statement that names no column (`SELECT count(*) FROM t`,
    // `SELECT 1 FROM t`) still scans the table to count its rows: bind the
    // narrowest column (the first of them) as the one scanned, so every
    // path has bytes to walk and the RM geometry a field.
    if binder.touched.is_empty() {
        let narrowest = schema.iter().min_by_key(|(_, def)| def.ty.width());
        binder.touched.extend(narrowest.map(|(id, _)| id));
    }

    let bound = BoundQuery {
        table: stmt.table.clone(),
        touched: binder.touched,
        preds,
        items,
        group_by,
        order_by,
        limit: stmt.limit,
    };

    // SQL rule: with aggregates, every plain item must be a grouping column.
    if bound.has_aggregates() {
        for item in &bound.items {
            if let OutputItem::Expr(e) = item {
                match e {
                    Expr::Col(s) if bound.group_by.contains(s) => {}
                    _ => {
                        return Err(FabricError::Sql(
                            "non-aggregate output must be a GROUP BY column".into(),
                        ))
                    }
                }
            }
        }
    } else if !bound.group_by.is_empty() {
        return Err(FabricError::Sql("GROUP BY without aggregates".into()));
    }

    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use fabric_sim::{MemoryHierarchy, SimConfig};
    use fabric_types::{ColumnType, Schema};
    use rowstore::RowTable;

    fn catalog() -> Catalog {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("flag", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
            ("d", ColumnType::Date),
        ]);
        let t = RowTable::create(&mut mem, schema, 4).unwrap();
        let mut c = Catalog::new();
        c.register_rows("t", t);
        c
    }

    #[test]
    fn binds_slots_in_first_use_order() {
        let c = catalog();
        let b = bind(&c, &parse("SELECT qty, id FROM t WHERE d > 5").unwrap()).unwrap();
        assert_eq!(b.touched, vec![2, 0, 3]); // qty, id, d
        assert_eq!(b.preds, vec![(2, CmpOp::Gt, Value::I64(5))]);
        assert_eq!(b.items.len(), 2);
        assert!(!b.has_aggregates());
    }

    #[test]
    fn binds_aggregates_with_group_by() {
        let c = catalog();
        let b = bind(
            &c,
            &parse("SELECT flag, sum(qty * 2), count(*) FROM t GROUP BY flag").unwrap(),
        )
        .unwrap();
        assert!(b.has_aggregates());
        assert_eq!(b.group_by, vec![0]); // flag is slot 0
        match &b.items[1] {
            OutputItem::Agg(AggFunc::Sum, e) => assert_eq!(e.ops(), 1),
            other => panic!("bad {other:?}"),
        }
    }

    #[test]
    fn a_statement_naming_no_column_scans_the_narrowest_one() {
        let c = catalog();
        let schema = c.get("t").unwrap().schema().clone();
        let narrowest = schema.iter().map(|(_, def)| def.ty.width()).min().unwrap();
        for sql in ["SELECT count(*) FROM t", "SELECT 1 FROM t"] {
            let b = bind(&c, &parse(sql).unwrap()).unwrap();
            let [col] = b.touched[..] else {
                panic!("`{sql}` touches {:?}", b.touched)
            };
            assert_eq!(schema.column(col).unwrap().ty.width(), narrowest);
            // The first of the narrowest.
            assert!(schema
                .iter()
                .take(col)
                .all(|(_, def)| def.ty.width() > narrowest));
        }
        // Naming a column anywhere leaves the touched list alone.
        let b = bind(&c, &parse("SELECT count(*) FROM t WHERE id < 3").unwrap()).unwrap();
        assert_eq!(b.touched.len(), 1);
    }

    #[test]
    fn rejects_ungrouped_plain_columns() {
        let c = catalog();
        assert!(bind(&c, &parse("SELECT id, sum(qty) FROM t").unwrap()).is_err());
        assert!(bind(&c, &parse("SELECT id FROM t GROUP BY id").unwrap()).is_err());
    }

    #[test]
    fn rejects_unknown_names_and_type_mismatches() {
        let c = catalog();
        assert!(bind(&c, &parse("SELECT nope FROM t").unwrap()).is_err());
        assert!(bind(&c, &parse("SELECT id FROM missing").unwrap()).is_err());
        assert!(bind(&c, &parse("SELECT id FROM t WHERE flag > 3").unwrap()).is_err());
        assert!(bind(&c, &parse("SELECT id FROM t WHERE id = 'x'").unwrap()).is_err());
    }
}
