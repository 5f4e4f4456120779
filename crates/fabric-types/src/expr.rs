//! Scalar expressions over decoded tuples, plus value-level aggregate
//! accumulators.
//!
//! Every engine in the workspace (the vectorized row and column stores,
//! the RM consumer code, and the SQL executor) evaluates the
//! same [`Expr`] tree, so results are comparable bit for bit. [`Expr::ops`]
//! reports the number of arithmetic operations so engines can charge CPU
//! cycles consistently.

use crate::chunk::{Chunk, ChunkError, ColumnView, BATCH_ROWS};
use crate::error::{FabricError, Result};
use crate::geometry::AggFunc;
use crate::value::Value;
use std::fmt;

/// A scalar expression over a positional tuple.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Value of the tuple's `i`-th slot.
    Col(usize),
    /// A literal.
    Const(Value),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // `add`/`mul` etc. are builders, not operators
impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Const(v)
    }

    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// Evaluate to `f64` over a positional tuple.
    pub fn eval_f64(&self, tuple: &[Value]) -> Result<f64> {
        Ok(match self {
            Expr::Col(i) => tuple
                .get(*i)
                .ok_or(FabricError::ColumnIndexOutOfRange {
                    index: *i,
                    len: tuple.len(),
                })?
                .as_f64()?,
            Expr::Const(v) => v.as_f64()?,
            Expr::Add(a, b) => a.eval_f64(tuple)? + b.eval_f64(tuple)?,
            Expr::Sub(a, b) => a.eval_f64(tuple)? - b.eval_f64(tuple)?,
            Expr::Mul(a, b) => a.eval_f64(tuple)? * b.eval_f64(tuple)?,
            Expr::Div(a, b) => {
                let d = b.eval_f64(tuple)?;
                if d == 0.0 {
                    return Err(FabricError::Internal("division by zero".into()));
                }
                a.eval_f64(tuple)? / d
            }
        })
    }

    /// Evaluate to a [`Value`] (column refs keep their type; arithmetic
    /// promotes to `F64`).
    pub fn eval(&self, tuple: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(i) => tuple
                .get(*i)
                .cloned()
                .ok_or(FabricError::ColumnIndexOutOfRange {
                    index: *i,
                    len: tuple.len(),
                }),
            Expr::Const(v) => Ok(v.clone()),
            _ => Ok(Value::F64(self.eval_f64(tuple)?)),
        }
    }

    /// Flatten the tree into a postfix program whose
    /// [`F64Program::eval_chunk`] gives every row the value, or the chunk
    /// the first error, [`Self::eval_f64`] gives: consumers compile once and
    /// then evaluate column-at-a-time.
    pub fn compile_f64(&self) -> F64Program {
        let mut ops = Vec::new();
        self.emit_f64(&mut ops);
        F64Program { ops }
    }

    fn emit_f64(&self, ops: &mut Vec<F64Op>) {
        let (a, b, op) = match self {
            Expr::Col(i) => return ops.push(F64Op::Col(*i)),
            Expr::Const(v) => return ops.push(F64Op::Lit(v.clone())),
            Expr::Add(a, b) => (a, b, F64Op::Add),
            Expr::Sub(a, b) => (a, b, F64Op::Sub),
            Expr::Mul(a, b) => (a, b, F64Op::Mul),
            Expr::Div(a, b) => {
                // `eval_f64` evaluates and checks the divisor before it
                // touches the dividend; keep that order so the same error
                // wins when both sides would fail.
                b.emit_f64(ops);
                ops.push(F64Op::NonZero);
                a.emit_f64(ops);
                return ops.push(F64Op::DivBy);
            }
        };
        a.emit_f64(ops);
        b.emit_f64(ops);
        ops.push(op);
    }

    /// Number of arithmetic operations in the tree (for CPU-cost charging).
    pub fn ops(&self) -> u64 {
        match self {
            Expr::Col(_) | Expr::Const(_) => 0,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.ops() + b.ops()
            }
        }
    }

    /// Append the distinct column slots referenced, in first-seen order.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Const(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// One instruction of an [`F64Program`].
#[derive(Debug, Clone)]
enum F64Op {
    /// Push the tuple's `i`-th slot as `f64`.
    Col(usize),
    /// Push a literal as `f64` (a string literal is the evaluation-time
    /// type error it is in [`Expr::eval_f64`]).
    Lit(Value),
    Add,
    Sub,
    Mul,
    /// Fail with "division by zero" if the top of the stack is `0.0`.
    NonZero,
    /// Pop the dividend, then the divisor below it; push the quotient.
    DivBy,
}

/// An [`Expr`] flattened by [`Expr::compile_f64`]: a postfix instruction
/// list, evaluated over a whole chunk per instruction.
#[derive(Debug, Clone)]
pub struct F64Program {
    ops: Vec<F64Op>,
}

/// One operand of a chunk evaluation: a constant, or one value per row in
/// a register of the [`F64Regs`] — a loaded input column that a later read
/// still needs, which is read only, or a register an instruction may
/// overwrite.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Scalar(f64),
    Input(usize),
    Reg(usize),
}

/// A chunk column [`F64Regs::load`] gathered as `f64`s, into the register
/// of the same index.
#[derive(Debug)]
struct Input {
    slot: usize,
    /// The error reading the column raised, if it could not be read.
    error: Option<FabricError>,
    /// Instructions still to run that read the column. Once none is left
    /// and no operand on the stack is the column, its register may be
    /// overwritten.
    reads: usize,
}

/// The registers chunk evaluation runs on: the loaded input columns, then
/// the operand vectors (host-side scratch, kept by the caller so
/// evaluation allocates nothing once they have grown).
#[derive(Debug, Default)]
pub struct F64Regs {
    /// The input column in `bufs[j]`, for every `j < inputs.len()`.
    inputs: Vec<Input>,
    /// Rows loaded.
    rows: usize,
    bufs: Vec<Vec<f64>>,
    stack: Vec<Operand>,
}

impl F64Regs {
    /// Gather `slots` of `chunk` at `rows` as `f64`, each distinct slot
    /// once, for the programs [`F64Program::eval_loaded`] evaluates next:
    /// `slots` names each slot once per read ([`F64Program::slots`]), and
    /// a column's register becomes an operand vector after its last read.
    /// A slot that cannot be read keeps its error, raised by the program
    /// that reads it.
    pub fn load(
        &mut self,
        chunk: &Chunk<'_>,
        rows: &[u32],
        slots: impl IntoIterator<Item = usize>,
    ) {
        self.inputs.clear();
        self.rows = rows.len();
        for slot in slots {
            if let Some(input) = self.inputs.iter_mut().find(|i| i.slot == slot) {
                input.reads += 1;
                continue;
            }
            let j = self.inputs.len();
            if self.bufs.len() == j {
                self.bufs.push(Vec::with_capacity(BATCH_ROWS));
            }
            let error = chunk
                .col(slot)
                .and_then(|col| col.gather_f64(rows, &mut self.bufs[j]))
                .err();
            self.inputs.push(Input {
                slot,
                error,
                reads: 1,
            });
        }
    }

    /// Heap bytes held (capacities).
    pub fn heap_bytes(&self) -> usize {
        let values: usize = self.bufs.iter().map(Vec::capacity).sum();
        values * size_of::<f64>()
            + self.inputs.capacity() * size_of::<Input>()
            + self.bufs.capacity() * size_of::<Vec<f64>>()
            + self.stack.capacity() * size_of::<Operand>()
    }
}

/// A chunk evaluation's result: one value for every row, or one per row.
#[derive(Debug, Clone, Copy)]
pub enum F64Column<'r> {
    Scalar(f64),
    Vector(&'r [f64]),
}

impl F64Column<'_> {
    /// The value of the `k`-th evaluated row.
    #[inline]
    pub fn at(&self, k: usize) -> f64 {
        match self {
            F64Column::Scalar(x) => *x,
            F64Column::Vector(v) => v[k],
        }
    }
}

/// Register `i` to write and register `j` to read, `i != j`.
fn write_read(bufs: &mut [Vec<f64>], i: usize, j: usize) -> (&mut Vec<f64>, &Vec<f64>) {
    if i < j {
        let (lo, hi) = bufs.split_at_mut(j);
        (&mut lo[i], &hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(i);
        (&mut hi[0], &lo[j])
    }
}

/// `f(a, b)` row by row: into the register of `a` if it has one, else of
/// `b`, else into register `free`, which is then in use. An input is read,
/// never written.
#[inline]
fn apply(
    bufs: &mut Vec<Vec<f64>>,
    free: usize,
    a: Operand,
    b: Operand,
    f: impl Fn(f64, f64) -> f64,
) -> Operand {
    /// Register `free`, emptied, and the registers below it, which hold
    /// every input.
    fn fresh(bufs: &mut Vec<Vec<f64>>, free: usize) -> (&mut Vec<f64>, &[Vec<f64>]) {
        if bufs.len() == free {
            bufs.push(Vec::with_capacity(BATCH_ROWS));
        }
        let (lo, hi) = bufs.split_at_mut(free);
        hi[0].clear();
        (&mut hi[0], lo)
    }
    match (a, b) {
        (Operand::Scalar(x), Operand::Scalar(y)) => Operand::Scalar(f(x, y)),
        (Operand::Reg(i), Operand::Scalar(y)) => {
            bufs[i].iter_mut().for_each(|x| *x = f(*x, y));
            Operand::Reg(i)
        }
        (Operand::Scalar(x), Operand::Reg(j)) => {
            bufs[j].iter_mut().for_each(|y| *y = f(x, *y));
            Operand::Reg(j)
        }
        // A register is on the stack once, and an input that is on the
        // stack is no register, so `i != j`.
        (Operand::Reg(i), Operand::Reg(j) | Operand::Input(j)) => {
            let (xs, ys) = write_read(bufs, i, j);
            xs.iter_mut().zip(ys).for_each(|(x, y)| *x = f(*x, *y));
            Operand::Reg(i)
        }
        (Operand::Input(i), Operand::Reg(j)) => {
            let (ys, xs) = write_read(bufs, j, i);
            ys.iter_mut().zip(xs).for_each(|(y, x)| *y = f(*x, *y));
            Operand::Reg(j)
        }
        (Operand::Input(i), Operand::Scalar(y)) => {
            let (out, inputs) = fresh(bufs, free);
            out.extend(inputs[i].iter().map(|x| f(*x, y)));
            Operand::Reg(free)
        }
        (Operand::Scalar(x), Operand::Input(j)) => {
            let (out, inputs) = fresh(bufs, free);
            out.extend(inputs[j].iter().map(|y| f(x, *y)));
            Operand::Reg(free)
        }
        (Operand::Input(i), Operand::Input(j)) => {
            let (out, inputs) = fresh(bufs, free);
            let pairs = inputs[i].iter().zip(&inputs[j]);
            out.extend(pairs.map(|(x, y)| f(*x, *y)));
            Operand::Reg(free)
        }
    }
}

impl F64Program {
    /// The slots the program reads, once per read: what
    /// [`F64Regs::load`] must have loaded for [`Self::eval_loaded`].
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.ops.iter().filter_map(|op| match op {
            F64Op::Col(i) => Some(*i),
            _ => None,
        })
    }

    /// Evaluate over `rows` of `chunk`: [`F64Regs::load`] of the program's
    /// own slots, then [`Self::eval_loaded`].
    pub fn eval_chunk<'r>(
        &self,
        chunk: &Chunk<'_>,
        rows: &[u32],
        regs: &'r mut F64Regs,
    ) -> std::result::Result<F64Column<'r>, ChunkError> {
        regs.load(chunk, rows, self.slots());
        self.eval_loaded(regs)
    }

    /// Evaluate over the rows `regs` loaded, one instruction at a time
    /// across all rows. Every row sees the operands, in the order,
    /// [`Expr::eval_f64`] gives it, so every value has the same bits; an
    /// error is the one a row-at-a-time loop over the rows would have hit
    /// first (earliest row, then earliest instruction), with that row's
    /// index among them. A slot that was not loaded, or that the load
    /// counted no read of left, is an internal error.
    pub fn eval_loaded<'r>(
        &self,
        regs: &'r mut F64Regs,
    ) -> std::result::Result<F64Column<'r>, ChunkError> {
        fn underflow() -> FabricError {
            FabricError::Internal("expression program stack underflow".into())
        }
        /// Pop `b`, then `a`: an input that no instruction reads again, and
        /// that no other operand is, is a register now. Also the first
        /// register past every input and every register left on the stack,
        /// for the result if it needs one.
        fn operands(
            stack: &mut Vec<Operand>,
            inputs: &[Input],
        ) -> Option<(Operand, Operand, usize)> {
            let (b, a) = (stack.pop()?, stack.pop()?);
            let taken = |o: Operand, other: Operand| match o {
                Operand::Input(j) if inputs[j].reads == 0 => {
                    let shared = |s: &Operand| matches!(s, Operand::Input(k) if *k == j);
                    if shared(&other) || stack.iter().any(shared) {
                        o
                    } else {
                        Operand::Reg(j)
                    }
                }
                o => o,
            };
            let (a, b) = (taken(a, b), taken(b, a));
            let free = stack.iter().filter_map(|o| match o {
                Operand::Reg(i) => Some(i + 1),
                _ => None,
            });
            Some((a, b, free.fold(inputs.len(), usize::max)))
        }
        if regs.rows == 0 {
            return Ok(F64Column::Vector(&[]));
        }
        let F64Regs {
            inputs,
            bufs,
            stack,
            ..
        } = regs;
        stack.clear();
        let mut first: Option<ChunkError> = None;
        let mut fail = |at: usize, error: FabricError| {
            if first.as_ref().is_none_or(|f| at < f.at) {
                first = Some(ChunkError { at, error });
            }
        };
        for op in &self.ops {
            let result = match op {
                F64Op::Col(i) => match inputs.iter().position(|input| input.slot == *i) {
                    Some(j) if inputs[j].reads > 0 => match &inputs[j].error {
                        Some(e) => {
                            // The same for every row, so the first row's.
                            fail(0, e.clone());
                            break;
                        }
                        None => {
                            inputs[j].reads -= 1;
                            Some(Operand::Input(j))
                        }
                    },
                    _ => {
                        let missing = format!("expression column {i} was not loaded");
                        fail(0, FabricError::Internal(missing));
                        break;
                    }
                },
                F64Op::Lit(v) => match v.as_f64() {
                    Ok(x) => Some(Operand::Scalar(x)),
                    Err(e) => {
                        fail(0, e);
                        break;
                    }
                },
                F64Op::NonZero => {
                    let zero = match stack.last() {
                        Some(Operand::Scalar(d)) => (*d == 0.0).then_some(0),
                        Some(Operand::Input(i) | Operand::Reg(i)) => {
                            bufs[*i].iter().position(|&d| d == 0.0)
                        }
                        None => None,
                    };
                    if let Some(at) = zero {
                        // Keep going: a later instruction may fail on an
                        // earlier row.
                        fail(at, FabricError::Internal("division by zero".into()));
                    }
                    continue;
                }
                F64Op::Add => operands(stack, inputs)
                    .map(|(a, b, free)| apply(bufs, free, a, b, |a, b| a + b)),
                F64Op::Sub => operands(stack, inputs)
                    .map(|(a, b, free)| apply(bufs, free, a, b, |a, b| a - b)),
                F64Op::Mul => operands(stack, inputs)
                    .map(|(a, b, free)| apply(bufs, free, a, b, |a, b| a * b)),
                // Pushed first the divisor, then the dividend.
                F64Op::DivBy => operands(stack, inputs)
                    .map(|(a, b, free)| apply(bufs, free, a, b, |a, b| b / a)),
            };
            let Some(result) = result else {
                fail(0, underflow());
                break;
            };
            stack.push(result);
        }
        if let Some(e) = first {
            return Err(e);
        }
        match stack.pop() {
            Some(Operand::Scalar(x)) => Ok(F64Column::Scalar(x)),
            Some(Operand::Input(i) | Operand::Reg(i)) => Ok(F64Column::Vector(&bufs[i])),
            None => Err(ChunkError {
                at: 0,
                error: underflow(),
            }),
        }
    }
}

/// A value-level aggregate accumulator (software engines; the device-side
/// equivalent lives in `relmem::aggregate`).
#[derive(Debug, Clone)]
pub struct ValueAgg {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl ValueAgg {
    pub fn new(func: AggFunc) -> Self {
        ValueAgg {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Feed one value (already the result of the aggregate's expression).
    #[inline]
    pub fn update(&mut self, v: &Value) -> Result<()> {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sum += v.as_f64()?,
            AggFunc::Min => {
                let better = match &self.min {
                    None => true,
                    Some(cur) => v.compare(cur)? == std::cmp::Ordering::Less,
                };
                if better {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                let better = match &self.max {
                    None => true,
                    Some(cur) => v.compare(cur)? == std::cmp::Ordering::Greater,
                };
                if better {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// [`Self::update`] with value `r` of `col`, decoded only when a
    /// `min` / `max` takes it.
    #[inline]
    pub fn update_at(&mut self, col: &ColumnView<'_>, r: usize) -> Result<()> {
        let beats = |best: &Option<Value>, wins: std::cmp::Ordering| -> Result<bool> {
            match best {
                None => Ok(true),
                Some(cur) => Ok(col.compare(r, cur)? == wins),
            }
        };
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sum += col.f64_at(r)?,
            AggFunc::Min => {
                if beats(&self.min, std::cmp::Ordering::Less)? {
                    self.min = Some(col.value(r));
                }
            }
            AggFunc::Max => {
                if beats(&self.max, std::cmp::Ordering::Greater)? {
                    self.max = Some(col.value(r));
                }
            }
        }
        self.count += 1;
        Ok(())
    }

    /// [`Self::update`] of a `count`: one row more; its value is not
    /// read.
    #[inline]
    pub fn count_row(&mut self) {
        debug_assert_eq!(self.func, AggFunc::Count);
        self.count += 1;
    }

    /// [`Self::update`] of a `sum` or an `avg` with a value whose
    /// [`Value::as_f64`] is `v`: one row more and one addition, the same
    /// bits.
    #[inline]
    pub fn add_f64(&mut self, v: f64) {
        debug_assert!(matches!(self.func, AggFunc::Sum | AggFunc::Avg));
        self.count += 1;
        self.sum += v;
    }

    /// Fold another accumulator of the *same* aggregate into this one
    /// (morsel-driven execution merges per-morsel partials at a barrier).
    /// Partials must be merged in a fixed order — floating-point sums are
    /// not associative, so the merge order is part of the result contract.
    pub fn merge(&mut self, other: &ValueAgg) -> Result<()> {
        if self.func != other.func {
            return Err(FabricError::Internal(
                "merging mismatched aggregate accumulators".into(),
            ));
        }
        self.count += other.count;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sum += other.sum,
            AggFunc::Min => {
                if let Some(v) = &other.min {
                    let better = match &self.min {
                        None => true,
                        Some(cur) => v.compare(cur)? == std::cmp::Ordering::Less,
                    };
                    if better {
                        self.min = Some(v.clone());
                    }
                }
            }
            AggFunc::Max => {
                if let Some(v) = &other.max {
                    let better = match &self.max {
                        None => true,
                        Some(cur) => v.compare(cur)? == std::cmp::Ordering::Greater,
                    };
                    if better {
                        self.max = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    pub fn finish(&self) -> Result<Value> {
        match self.func {
            AggFunc::Count => Ok(Value::I64(self.count as i64)),
            AggFunc::Sum => Ok(Value::F64(self.sum)),
            AggFunc::Avg => {
                if self.count == 0 {
                    Err(FabricError::Internal("AVG over zero rows".into()))
                } else {
                    Ok(Value::F64(self.sum / self.count as f64))
                }
            }
            AggFunc::Min => self
                .min
                .clone()
                .ok_or_else(|| FabricError::Internal("MIN over zero rows".into())),
            AggFunc::Max => self
                .max
                .clone()
                .ok_or_else(|| FabricError::Internal("MAX over zero rows".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ColumnSpec;

    fn tuple() -> Vec<Value> {
        vec![Value::I32(10), Value::F64(2.5), Value::I64(-4)]
    }

    #[test]
    fn eval_arithmetic() {
        // ($0 + $2) * $1 = (10 - 4) * 2.5 = 15
        let e = Expr::mul(Expr::add(Expr::col(0), Expr::col(2)), Expr::col(1));
        assert_eq!(e.eval_f64(&tuple()).unwrap(), 15.0);
        assert_eq!(e.eval(&tuple()).unwrap(), Value::F64(15.0));
        assert_eq!(e.ops(), 2);
    }

    #[test]
    fn col_eval_preserves_type() {
        assert_eq!(Expr::col(0).eval(&tuple()).unwrap(), Value::I32(10));
        assert_eq!(Expr::col(2).eval(&tuple()).unwrap(), Value::I64(-4));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::div(Expr::col(0), Expr::lit(Value::F64(0.0)));
        assert!(e.eval_f64(&tuple()).is_err());
    }

    /// `rows` packed row-major: the region's bytes and its column specs.
    fn packed(rows: &[Vec<Value>]) -> (Vec<u8>, Vec<ColumnSpec>) {
        let types: Vec<_> = rows[0].iter().map(Value::column_type).collect();
        let stride: usize = types.iter().map(|t| t.width()).sum();
        let mut specs = Vec::new();
        let mut offset = 0;
        for &ty in &types {
            specs.push(ColumnSpec { ty, offset, stride });
            offset += ty.width();
        }
        let mut bytes = vec![0u8; rows.len() * stride];
        for (r, row) in rows.iter().enumerate() {
            for (v, spec) in row.iter().zip(&specs) {
                let at = r * stride + spec.offset;
                v.encode_into(spec.ty, &mut bytes[at..at + spec.ty.width()])
                    .unwrap();
            }
        }
        (bytes, specs)
    }

    #[test]
    fn compiled_program_equals_eval_f64() {
        // The second row zeroes the second expression's divisor.
        let table = vec![
            tuple(),
            vec![Value::I32(7), Value::F64(-4.0), Value::I64(-4)],
            vec![Value::I32(-3), Value::F64(0.5), Value::I64(9)],
        ];
        let (bytes, specs) = packed(&table);
        let chunk = Chunk::new(&bytes, &specs);
        // Q1's widest sum, a division, and a division whose divisor and
        // dividend both fail: the divisor's error must win, as it does in
        // the recursive evaluator.
        let one = || Expr::lit(Value::I64(1));
        let exprs = [
            Expr::mul(
                Expr::mul(Expr::col(0), Expr::sub(one(), Expr::col(1))),
                Expr::add(one(), Expr::col(2)),
            ),
            Expr::div(Expr::col(0), Expr::sub(Expr::col(1), Expr::col(2))),
            Expr::div(Expr::col(9), Expr::lit(Value::F64(-0.0))),
            Expr::div(Expr::col(9), Expr::lit(Value::Str("x".into()))),
            Expr::col(9),
            Expr::add(one(), one()),
        ];
        let mut regs = F64Regs::default();
        for e in exprs {
            let program = e.compile_f64();
            for rows in [&[0u32, 1, 2][..], &[2, 0], &[1], &[]] {
                // Row at a time: every value, or the first error and where.
                let mut want = Ok(Vec::new());
                for (k, &r) in rows.iter().enumerate() {
                    match (e.eval_f64(&table[r as usize]), &mut want) {
                        (Ok(x), Ok(values)) => values.push(x.to_bits()),
                        (Err(error), Ok(_)) => want = Err(ChunkError { at: k, error }),
                        _ => {}
                    }
                }
                let got = program.eval_chunk(&chunk, rows, &mut regs).map(|col| {
                    (0..rows.len())
                        .map(|k| col.at(k).to_bits())
                        .collect::<Vec<_>>()
                });
                assert_eq!(got, want, "{e} over rows {rows:?}");
            }
        }
    }

    #[test]
    fn programs_sharing_one_load_equal_eval_f64() {
        let table = vec![
            tuple(),
            vec![Value::I32(7), Value::F64(-4.0), Value::I64(-4)],
            vec![Value::I32(-3), Value::F64(0.5), Value::I64(9)],
        ];
        let (bytes, specs) = packed(&table);
        let chunk = Chunk::new(&bytes, &specs);
        // The first program holds two fresh registers at once. `$1` is
        // read for the last time in the third program, whose result goes
        // to its register; `$2` in the fourth, by an instruction that
        // must not write it while the stack below still holds it. The
        // fifth returns `$0` as it was loaded, and the sixth reads it twice
        // in its last instruction.
        let one = || Expr::lit(Value::I64(1));
        let exprs = [
            Expr::mul(
                Expr::sub(one(), Expr::col(1)),
                Expr::add(Expr::col(2), one()),
            ),
            Expr::mul(Expr::col(0), Expr::sub(one(), Expr::col(1))),
            Expr::add(Expr::col(1), Expr::col(2)),
            Expr::mul(Expr::col(2), Expr::sub(Expr::col(2), Expr::col(0))),
            Expr::col(0),
            Expr::mul(Expr::col(0), Expr::col(0)),
        ];
        let programs: Vec<F64Program> = exprs.iter().map(Expr::compile_f64).collect();
        let mut regs = F64Regs::default();
        for rows in [&[0u32, 1, 2][..], &[2, 0], &[1]] {
            regs.load(&chunk, rows, programs.iter().flat_map(F64Program::slots));
            for (e, program) in exprs.iter().zip(&programs) {
                let want: Vec<u64> = rows
                    .iter()
                    .map(|&r| e.eval_f64(&table[r as usize]).unwrap().to_bits())
                    .collect();
                let col = program.eval_loaded(&mut regs).unwrap();
                let got: Vec<u64> = (0..rows.len()).map(|k| col.at(k).to_bits()).collect();
                assert_eq!(got, want, "{e} over rows {rows:?}");
            }
            // Every read the load counted is taken, and `$1`'s register
            // was overwritten: a program that reads again fails instead.
            let again = programs[0].eval_loaded(&mut regs).map(|_| ());
            assert!(
                matches!(
                    again,
                    Err(ChunkError {
                        at: 0,
                        error: FabricError::Internal(_)
                    })
                ),
                "{again:?}"
            );
        }
    }

    #[test]
    fn out_of_range_column_is_error() {
        assert!(Expr::col(9).eval_f64(&tuple()).is_err());
    }

    #[test]
    fn collect_columns_dedups() {
        let e = Expr::mul(Expr::add(Expr::col(1), Expr::col(3)), Expr::col(1));
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn display_round() {
        let e = Expr::mul(
            Expr::col(0),
            Expr::sub(Expr::lit(Value::F64(1.0)), Expr::col(1)),
        );
        assert_eq!(e.to_string(), "($0 * (1 - $1))");
    }

    #[test]
    fn value_agg_all_functions() {
        let mut count = ValueAgg::new(AggFunc::Count);
        let mut sum = ValueAgg::new(AggFunc::Sum);
        let mut min = ValueAgg::new(AggFunc::Min);
        let mut max = ValueAgg::new(AggFunc::Max);
        let mut avg = ValueAgg::new(AggFunc::Avg);
        for v in [3.0, -1.0, 7.0, 1.0] {
            for a in [&mut count, &mut sum, &mut min, &mut max, &mut avg] {
                a.update(&Value::F64(v)).unwrap();
            }
        }
        assert_eq!(count.finish().unwrap(), Value::I64(4));
        assert_eq!(sum.finish().unwrap(), Value::F64(10.0));
        assert_eq!(min.finish().unwrap(), Value::F64(-1.0));
        assert_eq!(max.finish().unwrap(), Value::F64(7.0));
        assert_eq!(avg.finish().unwrap(), Value::F64(2.5));
    }

    #[test]
    fn count_row_and_add_f64_match_update_bit_for_bit() {
        let payload = f64::from_bits(0x7ff0_0000_0000_0001);
        // Sums that stay finite, overflow, meet `-0.0`, or turn NaN — from a
        // NaN of either sign or payload, or from `inf + -inf`. Two NaNs of
        // different bits never meet in one sum: which one an addition
        // returns then depends on the operand order the compiler picks.
        let runs: [&[f64]; 7] = [
            &[0.1, -0.0, 0.0, -1e-310, 3.5, -2.25],
            &[-0.0, -0.0],
            &[1e308, 1e308, -1.0, f64::NEG_INFINITY],
            &[1.0, f64::NAN, 2.0, f64::NAN],
            &[-f64::NAN, 1.0, f64::INFINITY],
            &[payload, -0.0, payload],
            &[f64::INFINITY, 1.0, f64::NEG_INFINITY, 0.0],
        ];
        for run in runs {
            // Every prefix. The values are opaque to the optimiser, so
            // both sides add at run time.
            for n in 0..=run.len() {
                for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
                    let (mut fed, mut updated) = (ValueAgg::new(func), ValueAgg::new(func));
                    for &v in std::hint::black_box(&run[..n]) {
                        updated.update(&Value::F64(v)).unwrap();
                        match func {
                            AggFunc::Count => fed.count_row(),
                            _ => fed.add_f64(v),
                        }
                    }
                    // What `finish` reads, and what it returns.
                    let state =
                        |a: &ValueAgg| (a.count, a.sum.to_bits(), format!("{:?}", a.finish()));
                    assert_eq!(
                        state(&fed),
                        state(&updated),
                        "{func:?} over {:?}",
                        &run[..n]
                    );
                }
            }
        }
    }

    #[test]
    fn value_agg_merge_folds_partials() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let mut whole = ValueAgg::new(func);
            let mut lo = ValueAgg::new(func);
            let mut hi = ValueAgg::new(func);
            for v in [4.0, -2.0, 8.0, 1.0] {
                whole.update(&Value::F64(v)).unwrap();
            }
            lo.update(&Value::F64(4.0)).unwrap();
            lo.update(&Value::F64(-2.0)).unwrap();
            hi.update(&Value::F64(8.0)).unwrap();
            hi.update(&Value::F64(1.0)).unwrap();
            lo.merge(&hi).unwrap();
            assert_eq!(lo.finish().unwrap(), whole.finish().unwrap(), "{func:?}");
            // Merging an empty partial is a no-op.
            lo.merge(&ValueAgg::new(func)).unwrap();
            assert_eq!(lo.finish().unwrap(), whole.finish().unwrap());
        }
        let mut a = ValueAgg::new(AggFunc::Sum);
        assert!(a.merge(&ValueAgg::new(AggFunc::Min)).is_err());
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(
            ValueAgg::new(AggFunc::Count).finish().unwrap(),
            Value::I64(0)
        );
        assert_eq!(
            ValueAgg::new(AggFunc::Sum).finish().unwrap(),
            Value::F64(0.0)
        );
        assert!(ValueAgg::new(AggFunc::Min).finish().is_err());
        assert!(ValueAgg::new(AggFunc::Avg).finish().is_err());
    }
}
