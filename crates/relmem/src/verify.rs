//! Pre-configuration geometry verification.
//!
//! The hardware analogue: the RM engine's control registers only accept a
//! geometry the datapath can actually serve. [`VerifiedGeometry`] is the
//! software encoding of that contract — the only way to obtain one is
//! [`VerifiedGeometry::new`], which checks the geometry against the device
//! configuration and returns structured [`FabricError`]s instead of letting
//! a malformed descriptor reach the packer (where it would surface as an
//! arena panic or silently corrupt output).
//!
//! Checks layered on top of [`Geometry::validate`] (field bounds, mode
//! sanity, aggregate typing):
//!
//! * **destination overlap** — in [`fabric_types::OutputMode::FilteredRows`]
//!   the delivered row reuses the *source* field offsets as destination
//!   offsets, so two requested fields whose byte ranges overlap would alias
//!   in the output; in packed-columns mode destinations are prefix sums and a
//!   duplicated source range means the same bytes are packed twice — both
//!   indicate a malformed request and are rejected;
//! * **buffer geometry** — the delivery batch must be non-empty and fit
//!   inside the staging buffer, and one output row must fit in half of it,
//!   so that two rows can be double buffered (the prototype's 2 MB
//!   on-device memory, paper §V). A row wider than the batch is admitted:
//!   [`crate::EphemeralColumns::configure_verified`] widens that
//!   geometry's batches to one row.

use crate::config::RmConfig;
use fabric_types::{FabricError, Geometry, Result};
use std::sync::Arc;

/// A geometry that has passed every device-side admission check for a given
/// [`RmConfig`]. Construction is the verification. Cheap to clone: the
/// descriptor is shared, with the plan that holds it and with every
/// [`crate::EphemeralColumns`] configured from it.
#[derive(Debug, Clone)]
pub struct VerifiedGeometry {
    geometry: Arc<Geometry>,
}

impl VerifiedGeometry {
    /// Verify `geometry` against `cfg`. Every rejection is a structured
    /// [`FabricError`]; nothing here panics.
    pub fn new(cfg: &RmConfig, geometry: Geometry) -> Result<Self> {
        geometry.validate()?;
        check_buffer_geometry(cfg, &geometry)?;
        check_destination_overlap(&geometry)?;
        Ok(VerifiedGeometry {
            geometry: Arc::new(geometry),
        })
    }

    /// The verified geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The shared descriptor.
    pub(crate) fn into_shared(self) -> Arc<Geometry> {
        self.geometry
    }
}

/// The delivery batch must be non-empty and no larger than the staging
/// buffer, and one output row must fit in half the buffer so that two can
/// be double buffered. A row may be wider than `cfg.batch_bytes`:
/// [`crate::EphemeralColumns::configure_verified`] then delivers one row
/// per batch.
fn check_buffer_geometry(cfg: &RmConfig, g: &Geometry) -> Result<()> {
    if cfg.batch_bytes == 0 {
        return Err(FabricError::InvalidGeometry(
            "device batch size is zero".into(),
        ));
    }
    if cfg.buffer_bytes < cfg.batch_bytes {
        return Err(FabricError::InvalidGeometry(format!(
            "staging buffer ({} B) smaller than one delivery batch ({} B)",
            cfg.buffer_bytes, cfg.batch_bytes
        )));
    }
    let out = g.output_row_width();
    if out > cfg.buffer_bytes / 2 {
        return Err(FabricError::InvalidGeometry(format!(
            "output row of {out} B cannot be double buffered in a {} B staging buffer",
            cfg.buffer_bytes
        )));
    }
    Ok(())
}

/// Reject geometries whose requested fields would collide in the delivered
/// row (see module docs for the per-mode rationale).
fn check_destination_overlap(g: &Geometry) -> Result<()> {
    let mut ranges: Vec<(usize, usize, usize)> = g
        .fields
        .iter()
        .map(|f| (f.offset, f.offset + f.width(), f.column))
        .collect();
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        let (a_start, a_end, a_col) = pair[0];
        let (b_start, _, b_col) = pair[1];
        if b_start < a_end {
            return Err(FabricError::InvalidGeometry(format!(
                "fields for columns {a_col} and {b_col} overlap in the output row \
                 (byte {b_start} < end of range starting at {a_start})",
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::{ColumnType, FieldSlice};

    fn packed(fields: Vec<FieldSlice>) -> Geometry {
        Geometry::packed(0, 64, 100, fields)
    }

    fn f(col: usize, offset: usize, ty: ColumnType) -> FieldSlice {
        FieldSlice::new(col, offset, ty)
    }

    #[test]
    fn accepts_disjoint_fields() {
        let g = packed(vec![f(0, 0, ColumnType::I32), f(1, 4, ColumnType::I64)]);
        assert!(VerifiedGeometry::new(&RmConfig::prototype(), g).is_ok());
    }

    #[test]
    fn rejects_overlapping_fields() {
        let g = packed(vec![f(0, 0, ColumnType::I64), f(1, 4, ColumnType::I32)]);
        let err = VerifiedGeometry::new(&RmConfig::prototype(), g).unwrap_err();
        assert!(
            matches!(err, FabricError::InvalidGeometry(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn rejects_duplicate_fields() {
        let g = packed(vec![f(0, 0, ColumnType::I32), f(0, 0, ColumnType::I32)]);
        assert!(VerifiedGeometry::new(&RmConfig::prototype(), g).is_err());
    }

    #[test]
    fn rejects_out_of_row_fields_via_validate() {
        let g = packed(vec![f(0, 61, ColumnType::I32)]);
        let err = VerifiedGeometry::new(&RmConfig::prototype(), g).unwrap_err();
        assert!(matches!(err, FabricError::GeometryOutOfBounds { .. }));
    }

    #[test]
    fn rejects_degenerate_buffer_geometry() {
        let g = packed(vec![f(0, 0, ColumnType::I32)]);
        let cfg = RmConfig {
            batch_bytes: 0,
            ..RmConfig::prototype()
        };
        assert!(VerifiedGeometry::new(&cfg, g.clone()).is_err());
        let cfg = RmConfig {
            buffer_bytes: 1024,
            batch_bytes: 4096,
            ..RmConfig::prototype()
        };
        assert!(VerifiedGeometry::new(&cfg, g).is_err());
    }

    #[test]
    fn rejects_output_row_wider_than_half_the_buffer() {
        // A filtered-rows geometry delivers whole base rows; make the base
        // row wider than half the staging buffer.
        let g = Geometry::packed(0, 4096, 10, vec![f(0, 0, ColumnType::I32)])
            .with_mode(fabric_types::OutputMode::FilteredRows);
        let cfg = RmConfig {
            buffer_bytes: 4096,
            batch_bytes: 1024,
            ..RmConfig::prototype()
        };
        assert!(VerifiedGeometry::new(&cfg, g).is_err());
    }

    #[test]
    fn verified_geometry_round_trips() {
        let g = packed(vec![f(0, 0, ColumnType::I32)]);
        let vg = VerifiedGeometry::new(&RmConfig::prototype(), g.clone()).unwrap();
        assert_eq!(vg.geometry(), &g);
        assert_eq!(*vg.into_shared(), g);
    }
}
