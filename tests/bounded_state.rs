//! Bounded engine state under a long-running workload: the metrics
//! registry holds engine-wide aggregates only, so it stops growing once
//! every query class, access path and cache temperature has been seen —
//! however many sessions open and however many distinct plans run.
//!
//! Each generated statement projects or aggregates its own column set, so
//! almost every one has a geometry (and a calibration-ledger key) no
//! earlier statement had, and each runs in a session of its own.
//!
//! ```text
//! FABRIC_PAR_CORES=1,2,4,8 FABRIC_CHAOS_SEED=12345 \
//!     cargo test --test bounded_state
//! ```

use std::collections::BTreeSet;

use fabric_sim::SimConfig;
use fabric_types::rng::{for_each_case, DetRng, PROPERTY_CASES};
use query::{AccessPath, Engine};
use workload::Lineitem;

mod support;
use support::{core_grid, DATA_SEED};

/// Small enough that a few hundred statements per core count stay quick.
const ROWS: usize = 2_048;

/// Lineitem's columns the generator projects and aggregates over.
const COLUMNS: [&str; 8] = [
    "l_orderkey",
    "l_partkey",
    "l_suppkey",
    "l_linenumber",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
];

/// Sessions before the first count; the second is after ten times as many.
const N: u64 = PROPERTY_CASES / 10;

/// A projection, a global aggregate or a grouped aggregate (`scan`, `q6`,
/// `q1`) over a random column set.
fn statement(rng: &mut DetRng) -> String {
    let cols: Vec<&str> = COLUMNS
        .iter()
        .copied()
        .filter(|_| rng.gen_range(0..2u32) == 0)
        .collect();
    let cols = if cols.is_empty() {
        vec![COLUMNS[0]]
    } else {
        cols
    };
    let bound = rng.gen_range(1..50u32);
    let filter = format!("WHERE l_quantity < {bound}");
    let sums: Vec<String> = cols.iter().map(|c| format!("sum({c})")).collect();
    match rng.gen_range(0..3u32) {
        0 => format!("SELECT {} FROM lineitem {filter}", cols.join(", ")),
        1 => format!("SELECT {} FROM lineitem {filter}", sums.join(", ")),
        _ => format!(
            "SELECT l_returnflag, count(*), {} FROM lineitem {filter} GROUP BY l_returnflag",
            sums.join(", ")
        ),
    }
}

fn keys(e: &Engine) -> BTreeSet<String> {
    let snap = e.mem_ref().metrics().snapshot();
    let names = snap.counters.keys().chain(snap.gauges.keys());
    names.chain(snap.histograms.keys()).cloned().collect()
}

#[test]
fn the_registry_holds_as_many_keys_after_ten_times_the_sessions() {
    for cores in core_grid() {
        let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
        let li = Lineitem::generate(e.mem(), ROWS, DATA_SEED).unwrap();
        e.register("lineitem", li.rows, li.cols);
        // Every class on every path, cold then as an op-cache hit: the
        // engine-wide aggregates all exist before the count starts.
        for sql in [
            "SELECT l_orderkey FROM lineitem WHERE l_quantity < 5",
            "SELECT sum(l_tax) FROM lineitem WHERE l_quantity < 5",
            "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag",
        ] {
            for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
                for _ in 0..2 {
                    e.session().run_on(sql, path).unwrap();
                }
            }
        }

        let mut sessions = 0;
        let mut after_n = BTreeSet::new();
        let calib_before = e.calib().len();
        for_each_case("bounded_state", |rng| {
            let sql = statement(rng);
            e.session()
                .run(&sql)
                .unwrap_or_else(|err| panic!("{sql}: {err}"));
            sessions += 1;
            if sessions == N {
                after_n = keys(&e);
            } else if sessions == 10 * N {
                let after_10n = keys(&e);
                let grown: Vec<_> = after_10n.difference(&after_n).take(8).collect();
                assert!(grown.is_empty(), "{cores} cores: new keys {grown:?}");
                assert_eq!(after_10n.len(), after_n.len(), "{cores} cores");
            }
        });
        let new_entries = (e.calib().len() - calib_before) as u64;
        assert!(
            new_entries > N,
            "{cores} cores: the statements must span many plan geometries"
        );
    }
}
