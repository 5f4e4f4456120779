//! Direct probes of single kernels, run once at the end of a traced run:
//! the simulator's per-line paths on a fresh hierarchy, and the row-store,
//! column-store and Relational Memory kernels the executor calls, on the
//! workload's own table. Each reports host time per unit of work (how
//! fast the simulator runs) and, for the storage kernels, simulated
//! cycles per row (what the model charges).

use crate::stats::ratio;
use crate::tracer::{Root, Tracer};
use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::{CmpOp, ColumnId, Value};
use query::catalog::TableEntry;
use relmem::{EphemeralColumns, RmConfig};
use std::hint::black_box;

type Metrics = Vec<(&'static str, f64)>;

/// Lines each simulator probe touches: 16 MiB, far above the simulated
/// L2, so the miss and prefetch paths are what is timed.
const PROBE_LINES: u64 = 1 << 18;

/// Time `f` under `root` and return `(host ns, simulated cycles, line
/// accesses)` it took on `mem`, from cold simulated caches. `ok` turns
/// false if the kernel reports an error.
fn timed(
    mem: &mut MemoryHierarchy,
    tracer: &mut Tracer,
    root: &mut Root,
    name: &'static str,
    ok: &mut bool,
    f: impl FnOnce(&mut MemoryHierarchy) -> bool,
) -> (f64, f64, f64) {
    mem.flush_caches();
    let (now0, lines0) = (mem.now(), mem.stats().line_accesses);
    let start = tracer.now_ns();
    *ok &= f(mem);
    let end = tracer.now_ns();
    let cycles = mem.now() - now0;
    let lines = mem.stats().line_accesses - lines0;
    tracer.child(
        root,
        name,
        start,
        end,
        [("sim_cycles", cycles), ("lines", lines)],
    );
    ((end - start) as f64, cycles as f64, lines as f64)
}

/// `touch_read` over sequential and strided lines and `touch_read_gather`
/// over four streams, on a fresh single-core hierarchy. Returns whether
/// every probe ran.
pub fn simulator(tracer: &mut Tracer, root: &mut Root, out: &mut Metrics) -> bool {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let line = mem.config().line_size as u64;
    let Ok(base) = mem.alloc((PROBE_LINES * line) as usize, line as usize) else {
        return false;
    };
    let mut ok = true;
    let (ns, _, lines) = timed(&mut mem, tracer, root, "probe.sim.seq", &mut ok, |m| {
        for i in 0..PROBE_LINES {
            m.touch_read(base + i * line, line as usize);
        }
        true
    });
    out.push(("sim.host_ns_per_line_seq", ratio(ns, lines)));
    let (ns, _, lines) = timed(&mut mem, tracer, root, "probe.sim.strided", &mut ok, |m| {
        // 17 is coprime to the line count: every line once, 17 apart.
        for i in 0..PROBE_LINES {
            m.touch_read(base + (i * 17 % PROBE_LINES) * line, line as usize);
        }
        true
    });
    out.push(("sim.host_ns_per_line_strided", ratio(ns, lines)));
    let (ns, _, lines) = timed(&mut mem, tracer, root, "probe.sim.gather", &mut ok, |m| {
        let quarter = PROBE_LINES / 4;
        for i in 0..quarter {
            let at = |stream: u64| (base + (stream * quarter + i) * line, 8usize);
            m.touch_read_gather(&[at(0), at(1), at(2), at(3)]);
        }
        true
    });
    out.push(("sim.host_ns_per_line_gather", ratio(ns, lines)));
    ok
}

/// The storage kernels the executor keeps, over every row of `entry`:
/// `scan_range_vectorized` (ROW), one `scan_filter_conj_range_into`
/// selection plus one `for_each_lockstep_range` pass (COL), and
/// `EphemeralColumns::configure` plus a drain (RM), all reading `cols`.
/// Returns whether every kernel ran without error.
pub fn storage(
    mem: &mut MemoryHierarchy,
    entry: &TableEntry,
    cols: &[ColumnId],
    pred: &(CmpOp, Value),
    tracer: &mut Tracer,
    root: &mut Root,
    out: &mut Metrics,
) -> bool {
    let rows = entry.rows.len();
    let n = rows as f64;
    let mut ok = true;

    let (ns, cycles, _) = timed(mem, tracer, root, "probe.rowstore", &mut ok, |m| {
        let mut tuple = Vec::new();
        let scanned = rowstore::vector::scan_range_vectorized(
            m,
            &entry.rows,
            cols,
            &[],
            0,
            rows,
            &mut tuple,
            |_, vals| {
                black_box(vals);
                Ok(())
            },
        );
        scanned.is_ok()
    });
    out.push(("rowstore.host_ns_per_row", ratio(ns, n)));
    out.push(("rowstore.sim_cycles_per_row", ratio(cycles, n)));

    if let Some(table) = &entry.cols {
        let (ns, cycles, _) = timed(mem, tracer, root, "probe.colstore", &mut ok, |m| {
            let mut sel = Vec::new();
            let selected = colstore::exec::scan_filter_conj_range_into(
                m,
                table,
                cols[0],
                std::slice::from_ref(pred),
                0,
                rows,
                &mut sel,
            );
            let streamed =
                colstore::exec::for_each_lockstep_range(m, table, cols, 0, rows, |_, _, vals| {
                    black_box(vals);
                    Ok(())
                });
            black_box(sel.len());
            selected.is_ok() && streamed.is_ok()
        });
        out.push(("colstore.host_ns_per_row", ratio(ns, n)));
        out.push(("colstore.sim_cycles_per_row", ratio(cycles, n)));
    }

    let Ok(geometry) = entry.rows.geometry(cols) else {
        return false;
    };
    let (ns, cycles, _) = timed(mem, tracer, root, "probe.relmem", &mut ok, |m| {
        let Ok(mut eph) = EphemeralColumns::configure(m, RmConfig::prototype(), geometry) else {
            return false;
        };
        let mut delivered = 0;
        while let Some(batch) = eph.next_batch(m) {
            delivered += batch.len();
        }
        delivered == rows
    });
    out.push(("relmem.host_ns_per_row", ratio(ns, n)));
    out.push(("relmem.sim_cycles_per_row", ratio(cycles, n)));
    ok
}
