//! Uniform spatial hash-grid over a bounded field.
//!
//! The index behind the interweave cluster pairing
//! (`comimo_core::cluster_beam`): a "nearest unpaired node" query expands
//! cell rings outward from the anchor instead of rescanning the cluster,
//! so greedy pairing of K nodes costs O(K) expected instead of O(K²).
//!
//! Determinism contract: every cell keeps its entries **sorted by id**, so
//! iteration order is a pure function of the current membership — never of
//! the insertion/removal history. Queries compare exact `f64` squared
//! distances, which makes the grid agree bit-for-bit with a brute-force
//! O(N²) scan (property-tested in this module).

/// One indexed point: a caller-chosen id, unique per live entry, at an
/// exact position (metres).
#[derive(Debug, Clone)]
struct GridEntry {
    id: u32,
    x: f64,
    y: f64,
}

/// Uniform grid over `[origin, origin + extent]` with square cells.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    origin_x: f64,
    origin_y: f64,
    cell_m: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<GridEntry>>,
}

impl SpatialGrid {
    /// Grid covering `[min_x, max_x] × [min_y, max_y]`.
    ///
    /// # Panics
    /// If the box is inverted or `cell_m` is non-finite/non-positive.
    pub fn covering(min_x: f64, min_y: f64, max_x: f64, max_y: f64, cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "invalid cell size {cell_m}"
        );
        assert!(
            min_x.is_finite() && min_y.is_finite() && max_x >= min_x && max_y >= min_y,
            "invalid grid box [{min_x},{max_x}]x[{min_y},{max_y}]"
        );
        let cols = ((max_x - min_x) / cell_m).ceil().max(1.0) as usize;
        let rows = ((max_y - min_y) / cell_m).ceil().max(1.0) as usize;
        Self {
            origin_x: min_x,
            origin_y: min_y,
            cell_m,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    fn col_of(&self, x: f64) -> usize {
        (((x - self.origin_x) / self.cell_m) as usize).min(self.cols - 1)
    }

    fn row_of(&self, y: f64) -> usize {
        (((y - self.origin_y) / self.cell_m) as usize).min(self.rows - 1)
    }

    fn cell_index(&self, x: f64, y: f64) -> usize {
        self.row_of(y) * self.cols + self.col_of(x)
    }

    /// Whether `(x, y)` lies inside the covered box (entries outside it
    /// would land in a clamped cell and break query exactness, so
    /// [`Self::insert`] rejects them).
    fn contains_point(&self, x: f64, y: f64) -> bool {
        x.is_finite()
            && y.is_finite()
            && x >= self.origin_x
            && y >= self.origin_y
            && x <= self.origin_x + self.cols as f64 * self.cell_m
            && y <= self.origin_y + self.rows as f64 * self.cell_m
    }

    /// Inserts `id` at `(x, y)`.
    ///
    /// # Panics
    /// If the point lies outside the covered box, or `id` is already
    /// present in that cell.
    pub fn insert(&mut self, id: u32, x: f64, y: f64) {
        assert!(
            self.contains_point(x, y),
            "point ({x}, {y}) outside grid box"
        );
        let ci = self.cell_index(x, y);
        let cell = &mut self.cells[ci];
        let at = match cell.binary_search_by_key(&id, |e| e.id) {
            Ok(_) => panic!("duplicate grid id {id}"),
            Err(at) => at,
        };
        cell.insert(at, GridEntry { id, x, y });
    }

    /// Removes `id`, which the caller asserts sits at `(x, y)` (the grid
    /// stores positions redundantly precisely so removal is O(cell)).
    /// Returns `false` when no such entry exists.
    pub fn remove(&mut self, id: u32, x: f64, y: f64) -> bool {
        if !self.contains_point(x, y) {
            return false;
        }
        let ci = self.cell_index(x, y);
        let cell = &mut self.cells[ci];
        match cell.binary_search_by_key(&id, |e| e.id) {
            Ok(at) => {
                cell.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Exact nearest entry to `(x, y)` among entries satisfying `pred`,
    /// by lexicographic `(squared distance, id)` — the deterministic
    /// tie-break every caller in this workspace relies on. Expands cell
    /// rings outward and stops once no unseen ring can beat the best
    /// candidate, so the expected cost is O(occupancy of a few cells).
    pub fn nearest_matching(
        &self,
        x: f64,
        y: f64,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Option<(u32, f64)> {
        let c0 = self.col_of(x.clamp(
            self.origin_x,
            self.origin_x + self.cols as f64 * self.cell_m,
        ));
        let r0 = self.row_of(y.clamp(
            self.origin_y,
            self.origin_y + self.rows as f64 * self.cell_m,
        ));
        let max_ring = self.cols.max(self.rows);
        let mut best: Option<(f64, u32)> = None;
        for ring in 0..=max_ring {
            // any point in a ring-k cell is at least (k-1)·cell away
            if let Some((bd2, _)) = best {
                let lower = (ring as f64 - 1.0).max(0.0) * self.cell_m;
                if lower * lower > bd2 {
                    break;
                }
            }
            let mut visit = |row: usize, col: usize, best: &mut Option<(f64, u32)>| {
                for e in &self.cells[row * self.cols + col] {
                    if !pred(e.id) {
                        continue;
                    }
                    let (dx, dy) = (e.x - x, e.y - y);
                    let d2 = dx * dx + dy * dy;
                    if best.is_none() || (d2, e.id) < best.unwrap() {
                        *best = Some((d2, e.id));
                    }
                }
            };
            let (r_lo, r_hi) = (r0.saturating_sub(ring), (r0 + ring).min(self.rows - 1));
            let (c_lo, c_hi) = (c0.saturating_sub(ring), (c0 + ring).min(self.cols - 1));
            for row in r_lo..=r_hi {
                let edge_row = row + ring == r0 || row == r0 + ring;
                for col in c_lo..=c_hi {
                    // only the ring boundary, not the filled square
                    if edge_row || col + ring == c0 || col == c0 + ring {
                        visit(row, col, &mut best);
                    }
                }
            }
        }
        best.map(|(d2, id)| (id, d2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_math::rng::derive;
    use rand::Rng;

    fn grid(width_m: f64, height_m: f64, cell_m: f64) -> SpatialGrid {
        SpatialGrid::covering(0.0, 0.0, width_m, height_m, cell_m)
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = grid(100.0, 100.0, 10.0);
        g.insert(1, 5.0, 5.0);
        g.insert(2, 6.0, 5.0);
        g.insert(3, 95.0, 95.0);
        assert_eq!(g.nearest_matching(6.0, 5.0, |_| true), Some((2, 0.0)));
        assert!(g.remove(2, 6.0, 5.0));
        assert!(!g.remove(2, 6.0, 5.0), "double remove is false");
        assert_eq!(g.nearest_matching(6.0, 5.0, |_| true), Some((1, 1.0)));
    }

    #[test]
    fn boundary_points_are_indexed() {
        let mut g = grid(100.0, 100.0, 10.0);
        g.insert(7, 100.0, 100.0); // exactly on the far corner
        g.insert(8, 0.0, 0.0);
        assert_eq!(g.nearest_matching(99.0, 99.0, |_| true), Some((7, 2.0)));
        assert!(g.remove(7, 100.0, 100.0));
    }

    #[test]
    fn nearest_matching_uses_distance_then_id() {
        let mut g = grid(100.0, 100.0, 10.0);
        g.insert(9, 10.0, 10.0);
        g.insert(3, 10.0, 30.0); // same distance from (10, 20) as id 9
        g.insert(5, 80.0, 80.0);
        let (id, d2) = g.nearest_matching(10.0, 20.0, |_| true).unwrap();
        assert_eq!((id, d2), (3, 100.0), "equidistant tie goes to lower id");
        let (id, _) = g.nearest_matching(10.0, 20.0, |i| i != 3).unwrap();
        assert_eq!(id, 9);
        assert!(g.nearest_matching(0.0, 0.0, |_| false).is_none());
    }

    #[test]
    fn nearest_matching_crosses_rings_exactly() {
        // a candidate in the adjacent ring is nearer than one in the
        // centre cell: the ring expansion must not stop at the first hit
        let mut g = grid(100.0, 100.0, 10.0);
        g.insert(1, 11.0, 15.0); // centre cell of (19.5, 15): 8.5 away
        g.insert(2, 20.5, 15.0); // adjacent cell: only 1.0 away
        let (id, d2) = g.nearest_matching(19.5, 15.0, |_| true).unwrap();
        assert_eq!((id, d2), (2, 1.0));
    }

    #[test]
    fn agrees_with_brute_force_under_churn() {
        // deterministic randomized soak: inserts and removals, with the
        // nearest query diffed against a brute-force (d², id) argmin
        // after every step
        let mut rng = derive(0xC0FFEE, 17);
        let (w, h, cell) = (200.0, 150.0, 12.5);
        let mut g = grid(w, h, cell);
        let mut live: Vec<(u32, f64, f64)> = Vec::new();
        let mut next_id = 0u32;
        for step in 0..600 {
            if live.is_empty() || rng.gen_range(0..3u32) != 0 {
                let (x, y) = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
                g.insert(next_id, x, y);
                live.push((next_id, x, y));
                next_id += 1;
            } else {
                let at = rng.gen_range(0..live.len());
                let (id, x, y) = live.swap_remove(at);
                assert!(g.remove(id, x, y));
            }
            let (qx, qy) = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
            let brute_nn = live
                .iter()
                .map(|&(id, px, py)| {
                    let (dx, dy) = (px - qx, py - qy);
                    (dx * dx + dy * dy, id)
                })
                .min_by(|a, b| a.partial_cmp(b).unwrap());
            let grid_nn = g.nearest_matching(qx, qy, |_| true);
            assert_eq!(grid_nn.map(|(id, d2)| (d2, id)), brute_nn, "step {step}");
        }
    }
}
