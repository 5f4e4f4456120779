//! Exactness of the client boundary (DESIGN.md "The client boundary"):
//! `QueryOutput.rows` built a block at a time — ordered results gathered
//! a column at a time into typed scratch, rows allocated
//! [`CLIENT_FILL_ROWS`] at a time in output order and filled a column at
//! a time — must equal, bit for bit and in order, what the reference
//! executor of `tests/support/reference.rs` returns.
//!
//! Generated tables hold every column type: texts that are empty or fill
//! their width, `f32` / `f64` NaN payloads of both signs and `-0.0` beside
//! `0.0`, integer extremes, dates from day 0 to `u32::MAX`, and a key
//! with few distinct values. Statements are plain, `LIMIT`, `ORDER BY`
//! one fixed-width key ascending and descending with ties, a text key,
//! two keys and top-k; results hold 0, 1, `b − 1`, `b`, `b + 1` and
//! `3·b + 7` rows for `b` = [`CLIENT_FILL_ROWS`] (an ordered result of
//! `b` rows is read in place, one of `b + 1` gathered first), and for `b`
//! the rows one gather block of a wide projection holds
//! ([`CLIENT_GATHER_BYTES`]);
//! each runs on ROW, COL and RM at 1, 2 and 4 cores, cold and as an
//! op-cache hit.
//!
//! Seeded from `FABRIC_CHAOS_SEED` like the chaos suite; a failure prints
//! the seed to replay it with.

use fabric_types::rng::for_each_case;
use fabric_types::{ColumnType, DetRng};
use query::bind::bind;
use query::{AccessPath, CLIENT_FILL_ROWS, CLIENT_GATHER_BYTES};

mod support;
use support::reference::{self, Table, COLUMNS};
use support::seed;

/// Bytes a gather block spends per row of one projection of every
/// column: each column's machine width, a text its end offset.
fn row_bytes() -> usize {
    let bytes = |&(_, ty): &(&str, ColumnType)| match ty {
        ColumnType::FixedStr(_) => size_of::<usize>(),
        ty => ty.width(),
    };
    COLUMNS.iter().map(bytes).sum()
}

/// The statement tails under test (after `FROM t`) for a table of `n`
/// rows, drawing limits from `rng`: plain, `LIMIT`, one fixed-width key
/// with ties ascending, a float key descending, a text key, two keys and
/// top-k.
fn tails(rng: &mut DetRng, n: usize) -> Vec<String> {
    vec![
        String::new(),
        format!(" LIMIT {}", rng.gen_range(0..=n + 2)),
        " ORDER BY 2".into(),
        " ORDER BY 6 DESC".into(),
        " ORDER BY 8".into(),
        " ORDER BY 2 DESC, 5".into(),
        format!(" ORDER BY 3 LIMIT {}", rng.gen_range(1..=n + 2)),
    ]
}

/// Every column of `t` (holding `table`) `copies` times over, then
/// `tail`, against the reference: on every path and core count, cold and
/// as a hit.
fn check(table: &Table, copies: usize, tail: &str) {
    let names: Vec<&str> = COLUMNS.iter().map(|(name, _)| *name).collect();
    let sql = format!(
        "SELECT {} FROM t{tail}",
        vec![names.join(", "); copies].join(", ")
    );
    let engines = [1, 2, 4].map(|cores| table.engine(cores));
    let bound = bind(engines[0].catalog(), &query::parser::parse(&sql).unwrap()).unwrap();
    let expect = reference::execute(&bound, &table.stored).unwrap();
    for mut e in engines {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            e.clear_op_cache();
            let cores = e.cores();
            let mut s = e.session();
            let prepared = s.prepare(&sql).unwrap();
            for hit in [false, true] {
                let out = s.execute_on(&prepared, path).unwrap();
                assert_eq!(out.cache_hit, hit, "`{sql}` on {path:?}");
                let ctx = format!(
                    "`{sql}` on {path:?} at {cores} cores ({} rows, hit {hit})",
                    table.len()
                );
                reference::assert_answer(&bound, &out.rows, &expect, &ctx);
            }
        }
    }
}

/// Result sizes around `block` rows.
fn sizes(block: usize) -> [usize; 6] {
    [0, 1, block - 1, block, block + 1, 3 * block + 7]
}

#[test]
fn rows_built_a_block_at_a_time_are_the_per_value_rows() {
    // `run` moves on only when a case passes, so a re-run that shrinks a
    // failing case keeps its size and tail.
    let (mut run, sizes) = (0, sizes(CLIENT_FILL_ROWS));
    for_each_case("client rows around a fill block", |case| {
        let n = case.rows(sizes[run % sizes.len()]);
        let table = Table::generate(case, n);
        let tails = tails(case, n);
        let tail = &tails[(run / sizes.len()) % tails.len()];
        case.note(format!("tail `{tail}`"));
        check(&table, 1, tail);
        run += 1;
    });
}

#[test]
fn ordered_rows_across_gather_blocks_are_the_per_value_rows() {
    // Enough copies of the columns that a gather block holds a few
    // hundred rows.
    let copies = 16;
    let block = CLIENT_GATHER_BYTES / (copies * row_bytes());
    assert!(block > CLIENT_FILL_ROWS, "a gather block of {block} rows");
    let mut rng = DetRng::seed_from_u64(seed());
    for n in sizes(block) {
        let table = Table::generate(&mut rng, n);
        let tails = tails(&mut rng, n);
        // The two-key and the top-k tails gather every column type.
        for tail in &tails[5..] {
            check(&table, copies, tail);
        }
    }
}
