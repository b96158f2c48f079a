//! The gridded surveillance region and its vague-zone geometry.
//!
//! The paper divides the monitored area into *scenarios* — here square grid
//! cells over a rectangular region (paper Fig. 1). For the practical
//! setting, each cell is subdivided into an **inclusive zone** (far from the
//! border), a **vague zone** (a band of configurable width along the
//! border), and everything outside the cell is its **exclusive zone**
//! (paper Fig. 2).

use crate::error::{Error, Result};
use crate::geometry::{Point, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one grid cell (one spatial scenario).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct CellId(usize);

impl CellId {
    /// Creates a cell id from a raw row-major index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        CellId(index)
    }

    /// Returns the raw row-major index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

impl From<usize> for CellId {
    fn from(index: usize) -> Self {
        CellId(index)
    }
}

/// Which zone of a cell a point falls in (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Zone {
    /// Deep inside the cell: readings here are confidently attributed.
    Inclusive,
    /// Within the border band: readings may belong to a neighbouring cell.
    Vague,
    /// Outside the cell.
    Exclusive,
}

/// A rectangular surveillance region uniformly divided into square cells.
///
/// # Examples
///
/// ```
/// use ev_core::region::{GridRegion, Zone};
/// use ev_core::geometry::Point;
///
/// let region = GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap();
/// assert_eq!(region.cell_count(), 100);
///
/// let cell = region.cell_at(Point::new(150.0, 250.0)).unwrap();
/// assert_eq!(region.zone_of(cell, Point::new(150.0, 250.0)), Zone::Inclusive);
/// assert_eq!(region.zone_of(cell, Point::new(101.0, 250.0)), Zone::Vague);
/// assert_eq!(region.zone_of(cell, Point::new(50.0, 250.0)), Zone::Exclusive);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridRegion {
    width: f64,
    height: f64,
    cell_size: f64,
    vague_width: f64,
    cols: usize,
    rows: usize,
}

impl GridRegion {
    /// Creates a region of `width` x `height` metres divided into square
    /// cells of `cell_size` metres, each with a vague band of `vague_width`
    /// metres along its border.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if any dimension is non-positive
    /// or non-finite, if `cell_size` exceeds a region dimension, or if the
    /// vague band is negative or at least half the cell size (which would
    /// leave no inclusive zone).
    pub fn new(width: f64, height: f64, cell_size: f64, vague_width: f64) -> Result<Self> {
        fn positive(name: &'static str, v: f64) -> Result<()> {
            if !v.is_finite() || v <= 0.0 {
                return Err(Error::InvalidParameter {
                    name,
                    reason: format!("must be a positive finite number, got {v}"),
                });
            }
            Ok(())
        }
        positive("width", width)?;
        positive("height", height)?;
        positive("cell_size", cell_size)?;
        if !vague_width.is_finite() || vague_width < 0.0 {
            return Err(Error::InvalidParameter {
                name: "vague_width",
                reason: format!("must be a non-negative finite number, got {vague_width}"),
            });
        }
        if cell_size > width || cell_size > height {
            return Err(Error::InvalidParameter {
                name: "cell_size",
                reason: "cell size exceeds the region dimensions".into(),
            });
        }
        if vague_width >= cell_size / 2.0 {
            return Err(Error::InvalidParameter {
                name: "vague_width",
                reason: "vague band must be narrower than half the cell size".into(),
            });
        }
        let cols = (width / cell_size).ceil() as usize;
        let rows = (height / cell_size).ceil() as usize;
        Ok(GridRegion {
            width,
            height,
            cell_size,
            vague_width,
            cols,
            rows,
        })
    }

    /// Number of cell rows.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The bounding rectangle of the whole region.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        Rect::from_size(self.width, self.height)
    }

    /// The cell containing `p`.
    ///
    /// Points exactly on the region's max border are attributed to the last
    /// cell, so every point of the closed region maps to some cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRegion`] if `p` lies outside the region.
    pub fn cell_at(&self, p: Point) -> Result<CellId> {
        let (col, row) = self.column_and_row(p)?;
        Ok(CellId(row * self.cols + col))
    }

    /// [`GridRegion::cell_at`] and [`GridRegion::zone_of`] that cell in
    /// one call, for a caller that classifies many points: the cell's
    /// rectangle comes from the column and row just found, not from
    /// dividing the cell id back into them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRegion`] if `p` lies outside the region.
    pub fn locate(&self, p: Point) -> Result<(CellId, Zone)> {
        let (col, row) = self.column_and_row(p)?;
        let zone = self.zone_in(&self.cell_rect(col, row), p);
        Ok((CellId(row * self.cols + col), zone))
    }

    fn column_and_row(&self, p: Point) -> Result<(usize, usize)> {
        if !self.bounds().contains(p) {
            return Err(Error::OutOfRegion { x: p.x, y: p.y });
        }
        let col = ((p.x / self.cell_size) as usize).min(self.cols - 1);
        let row = ((p.y / self.cell_size) as usize).min(self.rows - 1);
        Ok((col, row))
    }

    /// The bounding rectangle of `cell`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownCell`] if the id is out of range.
    pub(crate) fn cell_bounds(&self, cell: CellId) -> Result<Rect> {
        if cell.0 >= self.cell_count() {
            return Err(Error::UnknownCell { index: cell.0 });
        }
        Ok(self.cell_rect(cell.0 % self.cols, cell.0 / self.cols))
    }

    fn cell_rect(&self, col: usize, row: usize) -> Rect {
        let min = Point::new(col as f64 * self.cell_size, row as f64 * self.cell_size);
        let max = Point::new(
            (min.x + self.cell_size).min(self.width),
            (min.y + self.cell_size).min(self.height),
        );
        Rect::new(min, max)
    }

    /// Classifies `p` relative to `cell` into inclusive / vague / exclusive
    /// zones (paper Fig. 2). Unknown cells classify everything as
    /// [`Zone::Exclusive`].
    ///
    /// The vague band extends `vague_width` metres on *both* sides of the
    /// cell border: a point slightly outside the cell is still `Vague`
    /// because electronic noise could equally have drifted it either way.
    #[must_use]
    pub fn zone_of(&self, cell: CellId, p: Point) -> Zone {
        let Ok(bounds) = self.cell_bounds(cell) else {
            return Zone::Exclusive;
        };
        self.zone_in(&bounds, p)
    }

    fn zone_in(&self, bounds: &Rect, p: Point) -> Zone {
        let d = bounds.signed_border_distance(p);
        if d >= self.vague_width {
            Zone::Inclusive
        } else if d > -self.vague_width {
            Zone::Vague
        } else {
            Zone::Exclusive
        }
    }

    /// Iterates over all cell ids in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.cell_count()).map(CellId)
    }
}

/// Read only by the tests.
#[cfg(test)]
impl GridRegion {
    /// The up-to-8 neighbouring cells of `cell` (diagonals included).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownCell`] if the id is out of range.
    pub(crate) fn neighbors(&self, cell: CellId) -> Result<Vec<CellId>> {
        if cell.0 >= self.cell_count() {
            return Err(Error::UnknownCell { index: cell.0 });
        }
        let row = (cell.0 / self.cols) as isize;
        let col = (cell.0 % self.cols) as isize;
        let mut out = Vec::with_capacity(8);
        for dr in -1..=1 {
            for dc in -1..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let (r, c) = (row + dr, col + dc);
                if r >= 0 && r < self.rows as isize && c >= 0 && c < self.cols as isize {
                    out.push(CellId(r as usize * self.cols + c as usize));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> GridRegion {
        GridRegion::new(1000.0, 1000.0, 100.0, 10.0).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(GridRegion::new(0.0, 10.0, 1.0, 0.0).is_err());
        assert!(GridRegion::new(10.0, -1.0, 1.0, 0.0).is_err());
        assert!(GridRegion::new(10.0, 10.0, 0.0, 0.0).is_err());
        assert!(
            GridRegion::new(10.0, 10.0, 20.0, 0.0).is_err(),
            "cell > region"
        );
        assert!(
            GridRegion::new(10.0, 10.0, 2.0, 1.0).is_err(),
            "vague >= half cell"
        );
        assert!(GridRegion::new(10.0, 10.0, 2.0, -0.1).is_err());
        assert!(GridRegion::new(f64::NAN, 10.0, 1.0, 0.0).is_err());
        assert!(
            GridRegion::new(10.0, 10.0, 2.0, 0.0).is_ok(),
            "zero vague band ok"
        );
    }

    #[test]
    fn paper_region_has_100_cells() {
        let r = region();
        assert_eq!(r.cell_count(), 100);
        assert_eq!(r.rows(), 10);
    }

    #[test]
    fn cell_at_maps_row_major() {
        let r = region();
        assert_eq!(r.cell_at(Point::new(0.0, 0.0)).unwrap(), CellId(0));
        assert_eq!(r.cell_at(Point::new(150.0, 0.0)).unwrap(), CellId(1));
        assert_eq!(r.cell_at(Point::new(0.0, 150.0)).unwrap(), CellId(10));
        assert_eq!(r.cell_at(Point::new(999.0, 999.0)).unwrap(), CellId(99));
    }

    #[test]
    fn max_border_points_belong_to_last_cells() {
        let r = region();
        assert_eq!(r.cell_at(Point::new(1000.0, 1000.0)).unwrap(), CellId(99));
        assert_eq!(r.cell_at(Point::new(1000.0, 0.0)).unwrap(), CellId(9));
    }

    #[test]
    fn out_of_region_points_error() {
        let r = region();
        assert!(matches!(
            r.cell_at(Point::new(-0.1, 5.0)),
            Err(Error::OutOfRegion { .. })
        ));
        assert!(r.cell_at(Point::new(5.0, 1000.1)).is_err());
    }

    #[test]
    fn cell_bounds_tile_the_region() {
        let r = region();
        let mut area = 0.0;
        for cell in r.cells() {
            let b = r.cell_bounds(cell).unwrap();
            area += b.width() * b.height();
        }
        assert!((area - 1_000_000.0).abs() < 1e-6);
        assert!(r.cell_bounds(CellId(100)).is_err());
    }

    #[test]
    fn zone_classification_matches_figure_2() {
        let r = region();
        let cell = r.cell_at(Point::new(150.0, 150.0)).unwrap();
        // Deep interior -> inclusive.
        assert_eq!(r.zone_of(cell, Point::new(150.0, 150.0)), Zone::Inclusive);
        // Within 10 m of the border, inside -> vague.
        assert_eq!(r.zone_of(cell, Point::new(105.0, 150.0)), Zone::Vague);
        // Within 10 m of the border, *outside* -> still vague (drift).
        assert_eq!(r.zone_of(cell, Point::new(95.0, 150.0)), Zone::Vague);
        // Far outside -> exclusive.
        assert_eq!(r.zone_of(cell, Point::new(50.0, 150.0)), Zone::Exclusive);
        // Exactly at the inclusive threshold counts as inclusive.
        assert_eq!(r.zone_of(cell, Point::new(110.0, 150.0)), Zone::Inclusive);
        // Unknown cell treats everything as exclusive.
        assert_eq!(
            r.zone_of(CellId(999), Point::new(1.0, 1.0)),
            Zone::Exclusive
        );
    }

    /// A lattice over the region and a band outside it, on grids whose
    /// last column and row are clipped or whose cell edges are not exact
    /// in binary, plus those edges themselves.
    #[test]
    fn locate_is_cell_at_then_zone_of() {
        for r in [
            region(),
            GridRegion::new(95.0, 45.0, 10.0, 2.0).unwrap(),
            GridRegion::new(1.0, 1.0, 0.1, 0.03).unwrap(),
        ] {
            let step = r.bounds().max.x / 160.0;
            let lattice = (-8..=168).flat_map(|i| {
                (-8..=168).map(move |j| Point::new(f64::from(i) * step, f64::from(j) * step))
            });
            let edges = (0..=10).map(|i| Point::new(f64::from(i) * 0.1, 0.3));
            for p in lattice.chain(edges) {
                let want = r.cell_at(p).map(|cell| (cell, r.zone_of(cell, p)));
                assert_eq!(r.locate(p), want, "{p:?}");
            }
        }
    }

    #[test]
    fn neighbors_counts() {
        let r = region();
        assert_eq!(r.neighbors(CellId(0)).unwrap().len(), 3, "corner");
        assert_eq!(r.neighbors(CellId(5)).unwrap().len(), 5, "edge");
        assert_eq!(r.neighbors(CellId(55)).unwrap().len(), 8, "interior");
        assert!(r.neighbors(CellId(100)).is_err());
    }

    #[test]
    fn zero_vague_band_makes_interior_inclusive() {
        let r = GridRegion::new(100.0, 100.0, 10.0, 0.0).unwrap();
        let cell = r.cell_at(Point::new(15.0, 15.0)).unwrap();
        assert_eq!(r.zone_of(cell, Point::new(15.0, 15.0)), Zone::Inclusive);
        assert_eq!(r.zone_of(cell, Point::new(25.0, 15.0)), Zone::Exclusive);
    }

    #[test]
    fn non_divisible_region_rounds_cell_grid_up() {
        let r = GridRegion::new(95.0, 45.0, 10.0, 0.0).unwrap();
        assert_eq!(r.cell_count(), 50, "10 columns of 5 rows");
        assert_eq!(r.rows(), 5);
        // Last column cells are clipped to the region border.
        let b = r.cell_bounds(CellId(9)).unwrap();
        assert!((b.width() - 5.0).abs() < 1e-12);
    }
}
