//! 1-D histograms with statistical comparison tests.
//!
//! Histograms are the currency of HEP validation: the output file of a
//! validation test "may be a simple yes/no, a text file, a histogram, a
//! root file" (§3.3). The comparison tests (χ² over bins with proper error
//! propagation, and Kolmogorov–Smirnov on the cumulative distribution) are
//! the two standard HEP compatibility checks between a new run and its
//! reference.

use std::collections::BTreeMap;

use crate::stats::{chi2_p_value, kolmogorov_q};

/// A fixed-binning 1-D histogram with weighted fills and per-bin variance
/// tracking (the `Sumw2` of ROOT histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram1D {
    name: String,
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
    sumw2: Vec<f64>,
    underflow: f64,
    overflow: f64,
    entries: u64,
    sum_w: f64,
    sum_wx: f64,
    sum_wx2: f64,
}

impl Histogram1D {
    /// Creates a histogram with `nbins` equal bins on `[lo, hi)`.
    ///
    /// # Panics
    /// If `nbins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(name: impl Into<String>, nbins: usize, lo: f64, hi: f64) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        Histogram1D {
            name: name.into(),
            lo,
            hi,
            counts: vec![0.0; nbins],
            sumw2: vec![0.0; nbins],
            underflow: 0.0,
            overflow: 0.0,
            entries: 0,
            sum_w: 0.0,
            sum_wx: 0.0,
            sum_wx2: 0.0,
        }
    }

    /// Histogram name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.counts.len()
    }

    /// Lower edge.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Bin contents (in-range bins only).
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Per-bin sum of squared weights.
    pub fn sumw2(&self) -> &[f64] {
        &self.sumw2
    }

    /// Underflow content.
    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    /// Overflow content.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Number of fill calls.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total in-range weight.
    pub fn integral(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// The running moment sums `(Σw, Σwx, Σwx²)` over in-range fills;
    /// exposed for serialisation.
    pub fn moment_sums(&self) -> (f64, f64, f64) {
        (self.sum_w, self.sum_wx, self.sum_wx2)
    }

    /// Reconstructs a histogram from serialised parts (see `hist_io`).
    /// Not intended for general use: the caller is responsible for the
    /// internal consistency of the moment sums.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: String,
        nbins: usize,
        lo: f64,
        hi: f64,
        counts: Vec<f64>,
        sumw2: Vec<f64>,
        underflow: f64,
        overflow: f64,
        entries: u64,
        sum_w: f64,
        sum_wx: f64,
        sum_wx2: f64,
    ) -> Self {
        assert_eq!(counts.len(), nbins, "counts length must equal nbins");
        assert_eq!(sumw2.len(), nbins, "sumw2 length must equal nbins");
        Histogram1D {
            name,
            lo,
            hi,
            counts,
            sumw2,
            underflow,
            overflow,
            entries,
            sum_w,
            sum_wx,
            sum_wx2,
        }
    }

    /// Bin index for a value, if in range.
    fn bin_index(&self, x: f64) -> Option<usize> {
        if !x.is_finite() || x < self.lo || x >= self.hi {
            return None;
        }
        let width = (self.hi - self.lo) / self.nbins() as f64;
        let idx = ((x - self.lo) / width) as usize;
        Some(idx.min(self.nbins() - 1))
    }

    /// Fills with unit weight.
    pub fn fill(&mut self, x: f64) {
        self.fill_weighted(x, 1.0);
    }

    /// Fills with the given weight. Non-finite values count as entries but
    /// land in overflow (mirroring ROOT's NaN handling closely enough).
    pub fn fill_weighted(&mut self, x: f64, w: f64) {
        self.entries += 1;
        match self.bin_index(x) {
            Some(idx) => {
                self.counts[idx] += w;
                self.sumw2[idx] += w * w;
                self.sum_w += w;
                self.sum_wx += w * x;
                self.sum_wx2 += w * x * x;
            }
            None if x < self.lo => self.underflow += w,
            None => self.overflow += w,
        }
    }

    /// Weighted mean of in-range fills.
    pub fn mean(&self) -> f64 {
        if self.sum_w == 0.0 {
            0.0
        } else {
            self.sum_wx / self.sum_w
        }
    }

    /// Weighted standard deviation of in-range fills.
    pub fn std_dev(&self) -> f64 {
        if self.sum_w == 0.0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_wx2 / self.sum_w - mean * mean).max(0.0).sqrt()
    }

    /// Adds another histogram bin-by-bin (same binning required).
    pub fn add(&mut self, other: &Histogram1D) -> Result<(), BinningMismatch> {
        self.check_binning(other)?;
        for (c, oc) in self.counts.iter_mut().zip(&other.counts) {
            *c += oc;
        }
        for (s, os) in self.sumw2.iter_mut().zip(&other.sumw2) {
            *s += os;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.entries += other.entries;
        self.sum_w += other.sum_w;
        self.sum_wx += other.sum_wx;
        self.sum_wx2 += other.sum_wx2;
        Ok(())
    }

    /// Multiplies all contents by `factor` (luminosity scaling).
    pub fn scale(&mut self, factor: f64) {
        for c in &mut self.counts {
            *c *= factor;
        }
        for s in &mut self.sumw2 {
            *s *= factor * factor;
        }
        self.underflow *= factor;
        self.overflow *= factor;
        self.sum_w *= factor;
        self.sum_wx *= factor;
        self.sum_wx2 *= factor;
    }

    fn check_binning(&self, other: &Histogram1D) -> Result<(), BinningMismatch> {
        if self.nbins() != other.nbins() || self.lo != other.lo || self.hi != other.hi {
            return Err(BinningMismatch {
                left: format!("{}[{}:{};{}]", self.name, self.lo, self.hi, self.nbins()),
                right: format!(
                    "{}[{}:{};{}]",
                    other.name,
                    other.lo,
                    other.hi,
                    other.nbins()
                ),
            });
        }
        Ok(())
    }

    /// χ² compatibility test against another histogram of identical
    /// binning. Bins where both histograms are empty are skipped; the
    /// variance per bin is `sumw2_a + sumw2_b` (both histograms treated as
    /// statistically independent samples).
    pub fn chi2_test(&self, other: &Histogram1D) -> Result<Chi2Result, BinningMismatch> {
        self.check_binning(other)?;
        let mut chi2 = 0.0;
        let mut ndf = 0u32;
        for i in 0..self.nbins() {
            let (a, b) = (self.counts[i], other.counts[i]);
            let var = self.sumw2[i] + other.sumw2[i];
            if var <= 0.0 {
                continue;
            }
            chi2 += (a - b) * (a - b) / var;
            ndf += 1;
        }
        let p_value = chi2_p_value(chi2, ndf);
        Ok(Chi2Result { chi2, ndf, p_value })
    }

    /// Two-sample Kolmogorov–Smirnov test on the binned cumulative
    /// distributions (the ROOT `TH1::KolmogorovTest` approach).
    pub fn ks_test(&self, other: &Histogram1D) -> Result<KsResult, BinningMismatch> {
        self.check_binning(other)?;
        // One fused sweep gathers both integrals and both Σw² totals —
        // the naive formulation walks the bin arrays four times before
        // the CDF loop even starts.
        let (mut sum_a, mut sum_b, mut w2_a, mut w2_b) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..self.nbins() {
            sum_a += self.counts[i];
            sum_b += other.counts[i];
            w2_a += self.sumw2[i];
            w2_b += other.sumw2[i];
        }
        if sum_a <= 0.0 || sum_b <= 0.0 {
            // Two empty histograms are trivially compatible; one empty and
            // one filled are maximally incompatible.
            let d = if sum_a == sum_b { 0.0 } else { 1.0 };
            return Ok(KsResult {
                statistic: d,
                p_value: if d == 0.0 { 1.0 } else { 0.0 },
            });
        }
        // Accumulate the *unnormalised* cumulative sums and scale each by
        // a precomputed reciprocal: no per-bin division, and the two
        // running sums are bit-identical across self-comparison (so a
        // histogram against itself still yields exactly D = 0).
        let (inv_a, inv_b) = (1.0 / sum_a, 1.0 / sum_b);
        let mut cum_a = 0.0;
        let mut cum_b = 0.0;
        let mut d: f64 = 0.0;
        for i in 0..self.nbins() {
            cum_a += self.counts[i];
            cum_b += other.counts[i];
            d = d.max((cum_a * inv_a - cum_b * inv_b).abs());
        }
        // Effective sample sizes from the weighted sums: `(Σw)² / Σw²`.
        let n_a = if w2_a <= 0.0 {
            0.0
        } else {
            sum_a * sum_a / w2_a
        };
        let n_b = if w2_b <= 0.0 {
            0.0
        } else {
            sum_b * sum_b / w2_b
        };
        let n_eff = (n_a * n_b / (n_a + n_b)).sqrt();
        let lambda = (n_eff + 0.12 + 0.11 / n_eff) * d;
        Ok(KsResult {
            statistic: d,
            p_value: kolmogorov_q(lambda),
        })
    }
}

/// Binning incompatibility between two histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinningMismatch {
    /// Description of the left histogram.
    pub left: String,
    /// Description of the right histogram.
    pub right: String,
}

impl std::fmt::Display for BinningMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binning mismatch: {} vs {}", self.left, self.right)
    }
}

impl std::error::Error for BinningMismatch {}

/// Result of a χ² compatibility test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Result {
    /// The χ² statistic.
    pub chi2: f64,
    /// Degrees of freedom (bins with content).
    pub ndf: u32,
    /// Upper-tail p-value.
    pub p_value: f64,
}

impl Chi2Result {
    /// χ²/ndf, the quantity quoted in validation summaries.
    pub fn reduced(&self) -> f64 {
        if self.ndf == 0 {
            0.0
        } else {
            self.chi2 / self.ndf as f64
        }
    }
}

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// Maximum CDF distance D.
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
}

/// A named collection of histograms — the "output file" of an analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSet {
    histograms: BTreeMap<String, Histogram1D>,
}

impl HistogramSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        HistogramSet::default()
    }

    /// Inserts (or replaces) a histogram under its own name.
    pub fn insert(&mut self, hist: Histogram1D) {
        self.histograms.insert(hist.name().to_string(), hist);
    }

    /// Looks up by name.
    pub fn get(&self, name: &str) -> Option<&Histogram1D> {
        self.histograms.get(name)
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Histogram1D> {
        self.histograms.get_mut(name)
    }

    /// Iterates histograms in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Histogram1D> {
        self.histograms.values()
    }

    /// Number of histograms.
    pub fn len(&self) -> usize {
        self.histograms.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }

    /// Names in order.
    pub fn names(&self) -> Vec<&str> {
        self.histograms.keys().map(String::as_str).collect()
    }

    /// Worst (smallest) χ² p-value across histograms present in both sets;
    /// `None` if no common histograms. Missing counterparts and binning
    /// mismatches count as p = 0 (maximally incompatible) since they mean
    /// the producing code changed shape.
    pub fn worst_chi2_p(&self, other: &HistogramSet) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for (name, hist) in &self.histograms {
            let p = match other.get(name) {
                Some(o) => hist.chi2_test(o).map(|r| r.p_value).unwrap_or(0.0),
                None => 0.0,
            };
            worst = Some(worst.map_or(p, |w: f64| w.min(p)));
        }
        worst
    }
}

impl FromIterator<Histogram1D> for HistogramSet {
    fn from_iter<T: IntoIterator<Item = Histogram1D>>(iter: T) -> Self {
        let mut set = HistogramSet::new();
        for h in iter {
            set.insert(h);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaussian_hist(name: &str, seed: u64, n: usize, mean: f64) -> Histogram1D {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Histogram1D::new(name, 50, -5.0, 15.0);
        for _ in 0..n {
            h.fill(crate::rng::normal(&mut rng, mean, 2.0));
        }
        h
    }

    #[test]
    fn fill_and_ranges() {
        let mut h = Histogram1D::new("test", 10, 0.0, 10.0);
        h.fill(-1.0);
        h.fill(0.0);
        h.fill(5.5);
        h.fill(9.999);
        h.fill(10.0);
        h.fill(f64::NAN);
        assert_eq!(h.entries(), 6);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 2.0); // 10.0 and NaN
        assert_eq!(h.integral(), 3.0);
        assert_eq!(h.bin_index(5.5), Some(5));
        assert_eq!(h.bin_index(10.0), None);
    }

    #[test]
    fn moments() {
        let mut h = Histogram1D::new("m", 100, -10.0, 30.0);
        for _ in 0..10 {
            h.fill(10.0);
        }
        assert!((h.mean() - 10.0).abs() < 1e-12);
        assert_eq!(h.std_dev(), 0.0);
        h.fill(20.0);
        assert!(h.mean() > 10.0);
        assert!(h.std_dev() > 0.0);
    }

    #[test]
    fn weighted_fills() {
        let mut h = Histogram1D::new("w", 4, 0.0, 4.0);
        h.fill_weighted(1.5, 2.0);
        h.fill_weighted(1.5, 3.0);
        assert_eq!(h.counts()[1], 5.0);
        assert_eq!(h.sumw2()[1], 13.0);
        assert_eq!(h.entries(), 2);
    }

    #[test]
    fn self_comparison_is_perfect() {
        let h = gaussian_hist("g", 1, 5000, 5.0);
        let chi2 = h.chi2_test(&h).unwrap();
        assert_eq!(chi2.chi2, 0.0);
        assert_eq!(chi2.p_value, 1.0);
        let ks = h.ks_test(&h).unwrap();
        assert_eq!(ks.statistic, 0.0);
        assert!((ks.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statistically_identical_samples_are_compatible() {
        let a = gaussian_hist("a", 1, 5000, 5.0);
        let b = gaussian_hist("b", 2, 5000, 5.0);
        let chi2 = a.chi2_test(&b).unwrap();
        assert!(
            chi2.p_value > 1e-3,
            "same-distribution samples: p={}, chi2/ndf={}",
            chi2.p_value,
            chi2.reduced()
        );
        let ks = a.ks_test(&b).unwrap();
        assert!(ks.p_value > 1e-3, "KS p={}", ks.p_value);
    }

    #[test]
    fn shifted_samples_are_incompatible() {
        let a = gaussian_hist("a", 1, 5000, 5.0);
        let b = gaussian_hist("b", 2, 5000, 6.0); // half-σ shift
        let chi2 = a.chi2_test(&b).unwrap();
        assert!(chi2.p_value < 1e-6, "shifted: p={}", chi2.p_value);
        let ks = a.ks_test(&b).unwrap();
        assert!(ks.p_value < 1e-6, "shifted KS: p={}", ks.p_value);
    }

    #[test]
    fn chi2_is_symmetric() {
        let a = gaussian_hist("a", 3, 2000, 5.0);
        let b = gaussian_hist("b", 4, 2000, 5.2);
        let ab = a.chi2_test(&b).unwrap();
        let ba = b.chi2_test(&a).unwrap();
        assert!((ab.chi2 - ba.chi2).abs() < 1e-9);
        assert_eq!(ab.ndf, ba.ndf);
    }

    #[test]
    fn binning_mismatch_rejected() {
        let a = Histogram1D::new("a", 10, 0.0, 1.0);
        let b = Histogram1D::new("b", 20, 0.0, 1.0);
        assert!(a.chi2_test(&b).is_err());
        assert!(a.ks_test(&b).is_err());
        let mut a2 = a.clone();
        assert!(a2.add(&b).is_err());
    }

    #[test]
    fn add_and_scale() {
        let mut a = gaussian_hist("a", 5, 1000, 5.0);
        let b = gaussian_hist("b", 6, 1000, 5.0);
        let total_before = a.integral() + b.integral();
        a.add(&b).unwrap();
        assert!((a.integral() - total_before).abs() < 1e-9);
        let integral = a.integral();
        a.scale(0.5);
        assert!((a.integral() - integral * 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_vs_filled_ks() {
        let empty = Histogram1D::new("e", 10, 0.0, 1.0);
        let mut filled = Histogram1D::new("f", 10, 0.0, 1.0);
        filled.fill(0.5);
        let ks = empty.ks_test(&filled).unwrap();
        assert_eq!(ks.statistic, 1.0);
        assert_eq!(ks.p_value, 0.0);
        let ks = empty.ks_test(&empty.clone()).unwrap();
        assert_eq!(ks.p_value, 1.0);
    }

    #[test]
    fn histogram_set_worst_p() {
        let mut set_a = HistogramSet::new();
        let mut set_b = HistogramSet::new();
        set_a.insert(gaussian_hist("same", 1, 3000, 5.0));
        set_b.insert(gaussian_hist("same", 2, 3000, 5.0));
        let p_same = set_a.worst_chi2_p(&set_b).unwrap();
        assert!(p_same > 1e-3);

        set_a.insert(gaussian_hist("shifted", 3, 3000, 5.0));
        set_b.insert(gaussian_hist("shifted", 4, 3000, 7.0));
        let p_shifted = set_a.worst_chi2_p(&set_b).unwrap();
        assert!(p_shifted < 1e-6);

        // Missing histogram counts as maximal incompatibility.
        set_a.insert(gaussian_hist("only-in-a", 5, 100, 5.0));
        assert_eq!(set_a.worst_chi2_p(&set_b), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram1D::new("bad", 0, 0.0, 1.0);
    }
}
