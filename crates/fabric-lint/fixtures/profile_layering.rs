//@ scan-as: crates/durability/src/fx_profile.rs
//! Tracing sits in the observability layer: a layer-3 storage crate may
//! import `fabric_obs::trace` (downward) to fold its own spans, but still
//! may not reach up into the query engine to label them.

use fabric_obs::trace::TraceBuffer;
use query::Engine; //~ layering-violation

pub fn folded(trace: &TraceBuffer) -> String {
    trace.to_folded()
}
