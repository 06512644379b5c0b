//! Balanced 1-D block decomposition.
//!
//! Data partitioning in CGYRO "happens by splitting and distributing the
//! tensors in all but one dimension" (paper §2). Every split in this
//! reproduction — `nv` over the str communicator, `nc` over the coll
//! communicator (per-simulation in CGYRO mode, ensemble-wide in XGYRO
//! mode), `nt` over the toroidal communicator — is an instance of this
//! balanced block decomposition.

use std::ops::Range;

/// A balanced block decomposition of `total` indices over `parts` owners.
///
/// The first `total % parts` owners receive one extra index, so block sizes
/// differ by at most one and the map is a bijection onto `0..total`.
///
/// ```
/// use xg_tensor::Decomp1D;
///
/// let d = Decomp1D::new(10, 3); // blocks of 4, 3, 3
/// assert_eq!(d.range(0), 0..4);
/// assert_eq!(d.range(2), 7..10);
/// assert_eq!(d.owner(5), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomp1D {
    total: usize,
    parts: usize,
}

impl Decomp1D {
    /// Create a decomposition of `total` indices over `parts` owners.
    /// `parts` must be nonzero.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0, "decomposition needs at least one part");
        Self { total, parts }
    }

    /// Global index count.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of owners.
    #[inline]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of indices owned by `part`.
    #[inline]
    pub fn count(&self, part: usize) -> usize {
        debug_assert!(part < self.parts);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        base + usize::from(part < extra)
    }

    /// First global index owned by `part`.
    #[inline]
    pub fn start(&self, part: usize) -> usize {
        debug_assert!(part <= self.parts);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        part * base + part.min(extra)
    }

    /// Global index range owned by `part`.
    #[inline]
    pub fn range(&self, part: usize) -> Range<usize> {
        self.start(part)..self.start(part) + self.count(part)
    }

    /// The owner of global index `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        assert!(idx < self.total, "index {idx} out of range {}", self.total);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        let fat = (base + 1) * extra; // indices covered by the fat parts
        if base == 0 {
            // More parts than indices: index i is owned by part i.
            return idx;
        }
        if idx < fat {
            idx / (base + 1)
        } else {
            extra + (idx - fat) / base
        }
    }

    /// Largest block size over all parts.
    pub fn max_count(&self) -> usize {
        if self.parts == 0 {
            0
        } else {
            self.count(0)
        }
    }
}

/// A possibly-ragged 1-D block decomposition: explicit per-part counts.
///
/// `Decomp1D` fixes block sizes to `total/parts` (±1, front-loaded);
/// `RaggedDecomp` lets a planner assign *arbitrary* contiguous block sizes
/// — the shape the unbalanced-decomposition literature (arxiv 1205.2509)
/// calls for when per-part costs differ (heterogeneous ranks, asymmetric
/// phase costs). Parts are still contiguous, ordered and gap-free, so the
/// wire format of every transpose is unchanged; only the cut points move.
///
/// ```
/// use xg_tensor::RaggedDecomp;
///
/// let d = RaggedDecomp::from_counts(&[5, 3, 2]);
/// assert_eq!(d.range(0), 0..5);
/// assert_eq!(d.range(2), 8..10);
/// assert_eq!(d.owner(6), 1);
/// assert_eq!(RaggedDecomp::balanced(10, 3).counts(), vec![4, 3, 3]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaggedDecomp {
    /// `parts + 1` cumulative offsets; `offsets[p]..offsets[p+1]` is part p.
    offsets: Vec<usize>,
}

impl RaggedDecomp {
    /// Build from explicit per-part counts (zeros allowed).
    pub fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty(), "decomposition needs at least one part");
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in counts {
            acc += c;
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// The balanced decomposition — bitwise the same cut points as
    /// `Decomp1D::new(total, parts)` (first `total % parts` parts get one
    /// extra index).
    pub fn balanced(total: usize, parts: usize) -> Self {
        let d = Decomp1D::new(total, parts);
        let counts: Vec<usize> = (0..parts).map(|p| d.count(p)).collect();
        Self::from_counts(&counts)
    }

    /// The split that follows the fixed summation tree ([`crate::tree`]):
    /// recursive halving, each half's left part taking the extra index, so
    /// part `p` of `parts = 2^j` owns the tree's `p`-th node at depth `j`.
    /// The block sizes are [`Self::balanced`]'s, in a different order:
    /// 18 over 4 is 5, 4, 5, 4.
    ///
    /// ```
    /// use xg_tensor::RaggedDecomp;
    ///
    /// assert_eq!(RaggedDecomp::tree(18, 4).counts(), vec![5, 4, 5, 4]);
    /// ```
    pub fn tree(total: usize, parts: usize) -> Self {
        assert!(parts.is_power_of_two(), "the tree split needs a power-of-two part count");
        let mut counts = vec![total];
        while counts.len() < parts {
            counts = counts
                .iter()
                .flat_map(|&c| [crate::tree::tree_left(c), c / 2])
                .collect();
        }
        Self::from_counts(&counts)
    }

    /// Apportion `total` indices over parts proportionally to `weights`
    /// (largest-remainder method, deterministic: ties broken by lower part
    /// index). Weights must be positive and finite. With equal weights this
    /// reproduces `balanced`.
    pub fn weighted(total: usize, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "decomposition needs at least one part");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        let sum: f64 = weights.iter().sum();
        // Floor of the ideal share, then hand the remainder to the largest
        // fractional parts (stable: equal remainders go to lower indices).
        let ideal: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
        let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
        let assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = ideal[a] - ideal[a].floor();
            let rb = ideal[b] - ideal[b].floor();
            rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
        });
        for &p in order.iter().take(total.saturating_sub(assigned)) {
            counts[p] += 1;
        }
        Self::from_counts(&counts)
    }

    /// Global index count.
    #[inline]
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Number of owners.
    #[inline]
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of indices owned by `part`.
    #[inline]
    pub fn count(&self, part: usize) -> usize {
        self.offsets[part + 1] - self.offsets[part]
    }

    /// First global index owned by `part`.
    #[inline]
    pub fn start(&self, part: usize) -> usize {
        self.offsets[part]
    }

    /// Global index range owned by `part`.
    #[inline]
    pub fn range(&self, part: usize) -> Range<usize> {
        self.offsets[part]..self.offsets[part + 1]
    }

    /// The owner of global index `idx` (first part whose range contains it;
    /// zero-sized parts never own anything).
    pub fn owner(&self, idx: usize) -> usize {
        assert!(idx < self.total(), "index {idx} out of range {}", self.total());
        // partition_point returns the first offset > idx; its predecessor
        // is the owning part.
        self.offsets.partition_point(|&o| o <= idx) - 1
    }

    /// Largest block size over all parts.
    pub fn max_count(&self) -> usize {
        (0..self.parts()).map(|p| self.count(p)).max().unwrap_or(0)
    }

    /// Per-part counts.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.parts()).map(|p| self.count(p)).collect()
    }

    /// True when this equals the balanced decomposition of the same shape.
    pub fn is_balanced(&self) -> bool {
        *self == Self::balanced(self.total(), self.parts())
    }
}

/// A planned ensemble decomposition: the 2-D process grid, ensemble size
/// and (optionally) unbalanced coll-phase `nc` cuts.
///
/// This is the first-class object the xg-cluster planner searches for and
/// the sim/core layers consume. The coll cuts partition the `nc` rows of
/// the shared collisional constant tensor over the `k·n1` coll-communicator
/// positions; `None` means the canonical balanced split. Only coll-phase
/// `nc` cuts are planned because they are **bitwise-neutral**: each
/// `(ic, it)` collision matvec is independent, so moving cut points moves
/// work without reassociating any floating-point sum. (The `nv` split is
/// not planned: it must follow the summation tree of the str-phase moment
/// reductions, see [`RaggedDecomp::tree`].)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    /// Per-simulation process grid.
    pub grid: crate::layout::ProcGrid,
    /// Ensemble size (number of member simulations).
    pub k: usize,
    /// Per-coll-position `nc` row counts (length `k·n1`, summing to `nc`),
    /// or `None` for the balanced split.
    pub coll_cuts: Option<Vec<usize>>,
}

impl Decomposition {
    /// The balanced decomposition for a grid/ensemble shape.
    pub fn balanced(grid: crate::layout::ProcGrid, k: usize) -> Self {
        Self { grid, k, coll_cuts: None }
    }

    /// Validate against a deck's `nc`: cut list (when present) must have
    /// one entry per coll position and sum to `nc`.
    pub fn validate(&self, nc: usize) -> Result<(), String> {
        if self.k == 0 {
            return Err("decomposition needs k >= 1".into());
        }
        if let Some(cuts) = &self.coll_cuts {
            let want = self.k * self.grid.n1;
            if cuts.len() != want {
                return Err(format!(
                    "coll cuts have {} entries, need k*n1 = {want}",
                    cuts.len()
                ));
            }
            let sum: usize = cuts.iter().sum();
            if sum != nc {
                return Err(format!("coll cuts sum to {sum}, need nc = {nc}"));
            }
        }
        Ok(())
    }

    /// True when this is the canonical balanced layout for deck size `nc`.
    pub fn is_balanced(&self, nc: usize) -> bool {
        match &self.coll_cuts {
            None => true,
            Some(cuts) => {
                RaggedDecomp::from_counts(cuts)
                    == RaggedDecomp::balanced(nc, self.k * self.grid.n1)
            }
        }
    }

    /// Short human label: `balanced` or `coll:5,5,3,3`.
    pub fn label(&self, nc: usize) -> String {
        if self.is_balanced(nc) {
            "balanced".to_string()
        } else {
            let cuts = self.coll_cuts.as_ref().unwrap();
            format!(
                "coll:{}",
                cuts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
            )
        }
    }

    /// Serialize to the `KEY=VALUE` file format consumed by
    /// `xgyro --decomp` and emitted by `xgplan --decomp`.
    pub fn to_file_string(&self) -> String {
        let mut s = String::new();
        s.push_str("# XGYRO decomposition (xgplan --decomp)\n");
        s.push_str(&format!("K={}\n", self.k));
        s.push_str(&format!("N1={}\n", self.grid.n1));
        s.push_str(&format!("N2={}\n", self.grid.n2));
        if let Some(cuts) = &self.coll_cuts {
            s.push_str(&format!(
                "COLL_CUTS={}\n",
                cuts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
            ));
        }
        s
    }

    /// Parse the `KEY=VALUE` format written by [`to_file_string`].
    ///
    /// [`to_file_string`]: Decomposition::to_file_string
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut k = None;
        let mut n1 = None;
        let mut n2 = None;
        let mut coll_cuts = None;
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, val)) = line.split_once('=') else {
                return Err(format!("decomp line {}: expected KEY=VALUE", ln + 1));
            };
            let (key, val) = (key.trim(), val.trim());
            let parse_usize = |v: &str, key: &str| -> Result<usize, String> {
                v.parse::<usize>().map_err(|_| format!("decomp {key}: bad value '{v}'"))
            };
            match key {
                "K" => k = Some(parse_usize(val, key)?),
                "N1" => n1 = Some(parse_usize(val, key)?),
                "N2" => n2 = Some(parse_usize(val, key)?),
                "COLL_CUTS" => {
                    let cuts = val
                        .split(',')
                        .map(|c| parse_usize(c.trim(), key))
                        .collect::<Result<Vec<_>, _>>()?;
                    coll_cuts = Some(cuts);
                }
                other => return Err(format!("decomp: unknown key '{other}'")),
            }
        }
        let k = k.ok_or("decomp: missing K=")?;
        let n1 = n1.ok_or("decomp: missing N1=")?;
        let n2 = n2.ok_or("decomp: missing N2=")?;
        if n1 == 0 || n2 == 0 || k == 0 {
            return Err("decomp: K, N1, N2 must be >= 1".into());
        }
        Ok(Self { grid: crate::layout::ProcGrid::new(n1, n2), k, coll_cuts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let d = Decomp1D::new(12, 4);
        for p in 0..4 {
            assert_eq!(d.count(p), 3);
            assert_eq!(d.range(p), p * 3..p * 3 + 3);
        }
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(11), 3);
    }

    #[test]
    fn uneven_split_front_loaded() {
        let d = Decomp1D::new(10, 4); // 3,3,2,2
        assert_eq!(d.count(0), 3);
        assert_eq!(d.count(1), 3);
        assert_eq!(d.count(2), 2);
        assert_eq!(d.count(3), 2);
        assert_eq!(d.range(2), 6..8);
        assert_eq!(d.max_count(), 3);
    }

    #[test]
    fn owner_matches_ranges_exhaustively() {
        for total in [1usize, 2, 7, 16, 31] {
            for parts in 1..=8usize {
                let d = Decomp1D::new(total, parts);
                let mut seen = vec![false; total];
                for p in 0..parts {
                    for g in d.range(p) {
                        assert_eq!(d.owner(g), p, "total={total} parts={parts} g={g}");
                        assert!(!seen[g], "index {g} covered twice");
                        seen[g] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total={total} parts={parts}: gap");
            }
        }
    }

    #[test]
    fn more_parts_than_indices() {
        let d = Decomp1D::new(3, 5); // 1,1,1,0,0
        assert_eq!(d.count(0), 1);
        assert_eq!(d.count(3), 0);
        assert_eq!(d.range(4), 3..3);
        assert_eq!(d.owner(2), 2);
    }

    #[test]
    fn single_part_owns_all() {
        let d = Decomp1D::new(9, 1);
        assert_eq!(d.range(0), 0..9);
        assert_eq!(d.owner(8), 0);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_panics() {
        let _ = Decomp1D::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        let d = Decomp1D::new(4, 2);
        let _ = d.owner(4);
    }

    #[test]
    fn ragged_balanced_matches_decomp1d_exactly() {
        for total in [0usize, 1, 3, 10, 16, 31, 97] {
            for parts in 1..=9usize {
                let r = RaggedDecomp::balanced(total, parts);
                let d = Decomp1D::new(total, parts);
                for p in 0..parts {
                    assert_eq!(r.range(p), d.range(p), "total={total} parts={parts} p={p}");
                }
                assert_eq!(r.max_count(), d.max_count());
                assert!(r.is_balanced());
            }
        }
    }

    #[test]
    fn ragged_from_counts_covers_gap_free() {
        let d = RaggedDecomp::from_counts(&[5, 0, 3, 2]);
        assert_eq!(d.total(), 10);
        assert_eq!(d.parts(), 4);
        assert_eq!(d.range(0), 0..5);
        assert_eq!(d.range(1), 5..5);
        assert_eq!(d.range(2), 5..8);
        assert_eq!(d.range(3), 8..10);
        assert_eq!(d.max_count(), 5);
        assert!(!d.is_balanced());
        let mut seen = [false; 10];
        for p in 0..4 {
            for g in d.range(p) {
                assert_eq!(d.owner(g), p);
                assert!(!seen[g]);
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ragged_owner_skips_empty_parts() {
        let d = RaggedDecomp::from_counts(&[0, 4, 0, 2]);
        assert_eq!(d.owner(0), 1);
        assert_eq!(d.owner(3), 1);
        assert_eq!(d.owner(4), 3);
        assert_eq!(d.owner(5), 3);
    }

    #[test]
    fn weighted_equal_weights_reproduce_balanced() {
        for total in [1usize, 7, 10, 64, 99] {
            for parts in 1..=6usize {
                let w = vec![1.0; parts];
                assert_eq!(
                    RaggedDecomp::weighted(total, &w),
                    RaggedDecomp::balanced(total, parts),
                    "total={total} parts={parts}"
                );
            }
        }
    }

    #[test]
    fn weighted_apportionment_tracks_speeds() {
        // One part at half speed gets roughly half the rows.
        let d = RaggedDecomp::weighted(32, &[1.0, 1.0, 1.0, 0.5]);
        assert_eq!(d.total(), 32);
        assert_eq!(d.counts(), vec![9, 9, 9, 5]);
        // Heavier weight never receives fewer rows.
        let d = RaggedDecomp::weighted(100, &[3.0, 2.0, 1.0]);
        let c = d.counts();
        assert!(c[0] >= c[1] && c[1] >= c[2]);
        assert_eq!(c.iter().sum::<usize>(), 100);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn weighted_rejects_nonpositive() {
        let _ = RaggedDecomp::weighted(8, &[1.0, 0.0]);
    }

    #[test]
    fn decomposition_roundtrip_and_validate() {
        use crate::layout::ProcGrid;
        let d = Decomposition {
            grid: ProcGrid::new(2, 3),
            k: 2,
            coll_cuts: Some(vec![5, 5, 3, 3]),
        };
        assert!(d.validate(16).is_ok());
        assert!(d.validate(15).is_err()); // bad sum
        let parsed = Decomposition::parse(&d.to_file_string()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(d.label(16), "coll:5,5,3,3");
        assert!(!d.is_balanced(16));

        let b = Decomposition::balanced(ProcGrid::new(2, 3), 2);
        assert!(b.validate(16).is_ok());
        assert_eq!(b.label(16), "balanced");
        let parsed = Decomposition::parse(&b.to_file_string()).unwrap();
        assert_eq!(parsed, b);

        // Cuts spelling out the balanced split are recognised as balanced.
        let explicit = Decomposition {
            grid: ProcGrid::new(2, 3),
            k: 2,
            coll_cuts: Some(vec![4, 4, 4, 4]),
        };
        assert!(explicit.is_balanced(16));
        assert_eq!(explicit.label(16), "balanced");
    }

    #[test]
    fn decomposition_parse_rejects_garbage() {
        assert!(Decomposition::parse("K=2\nN1=2\n").is_err()); // missing N2
        assert!(Decomposition::parse("K=2\nN1=2\nN2=0\n").is_err());
        assert!(Decomposition::parse("K=2\nN1=2\nN2=2\nBOGUS=1\n").is_err());
        assert!(Decomposition::parse("K=2\nN1=2\nN2=2\nCOLL_CUTS=1,x\n").is_err());
        assert!(Decomposition::parse("no equals sign").is_err());
    }
}
