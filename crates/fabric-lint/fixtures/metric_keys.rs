//@ scan-as: crates/query/src/exec/fx_keys.rs
//! `formatted-metric-key`: the per-query tail names metrics without
//! allocating. Static keys, resolved handles and formatted strings that
//! are not metric names are fine.

pub fn per_query_tail(reg: &mut MetricsRegistry, core: usize, path: &str) {
    reg.counter_add(&format!("query.core{core}.busy_cycles"), 1); //~ formatted-metric-key
    reg.gauge_set(&format!("query.path.{path}"), 1.0); //~ formatted-metric-key
    reg.observe(&format!("query.class.{path}.latency_cycles"), 7); //~ formatted-metric-key
}

pub fn allocation_free(reg: &mut MetricsRegistry, core: usize, key: &str, id: CounterId) {
    reg.counter_add("query.executions", 1);
    reg.counter_add(key, 1);
    reg.counter_add_id(id, 1);
    let label = format!("core {core}");
    reg.gauge_set(&label, 0.0);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_format_keys() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(&format!("t{}", 1), 1);
    }
}
