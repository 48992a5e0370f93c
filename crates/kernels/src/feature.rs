//! Sparse feature vectors in the kernels' explicit feature spaces.
//!
//! Every kernel in this crate has an explicit feature map φ(G): a sparse
//! vector indexed by stable 64-bit label hashes. The kernel value is then
//! simply `k(G, H) = ⟨φ(G), φ(H)⟩`, which makes Gram-matrix computation
//! embarrassingly parallel: features once per graph, dot products per pair.
//!
//! The vector is a flat `(id, weight)` array sorted by id. That buys two
//! things at once:
//!
//! * **Throughput** — the dot product is a linear merge-join over two
//!   contiguous arrays, a streaming scan instead of one hash lookup (and
//!   likely cache miss) per feature; bulk construction is one sort instead
//!   of per-key map inserts.
//! * **Reproducibility** — every reduction (dot products, norms,
//!   normalisation totals) accumulates in increasing-id order, so each
//!   value is a pure function of the *contents*, never of instance
//!   identity. Two extractions of φ(G) in different processes (or the
//!   k-way Gram and a pairwise dot) produce bit-identical numbers even
//!   for kernels with non-integer weights, where float summation order
//!   would otherwise leak through. The HashMap-backed predecessor
//!   violated this: iteration order depended on each map's random hasher
//!   seed.

/// The dot product of the kernel paths: the one scalar merge-join,
/// [`SparseFeatures::dot`].
///
/// Kept so configs and callers that name a dot kind keep working. It
/// serialises as `"scalar"`; deserialising also accepts `"blocked"` (a
/// retired variant whose sums were bit-identical) and a missing field,
/// both as `Scalar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DotKind {
    /// The branchless linear merge-join ([`SparseFeatures::dot`]).
    #[default]
    Scalar,
}

impl serde::Serialize for DotKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String("scalar".to_string())
    }
}

impl serde::Deserialize for DotKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(DotKind::Scalar),
            serde::Value::String(s) if s == "scalar" || s == "blocked" => Ok(DotKind::Scalar),
            other => Err(serde::Error::custom(format!(
                "unknown dot kind {other:?} (expected \"scalar\")"
            ))),
        }
    }
}

/// A sparse feature vector keyed by stable 64-bit feature ids.
///
/// Invariant: `map` is sorted by id and ids are unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseFeatures {
    map: Vec<(u64, f64)>,
}

impl SparseFeatures {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk constructor: sort once, then sum duplicate ids in their
    /// original relative order (a stable sort keeps that order, so this is
    /// exactly equivalent to [`SparseFeatures::add`] in a loop). Much
    /// cheaper than repeated `add` when most ids are new.
    pub fn from_pairs(mut pairs: Vec<(u64, f64)>) -> Self {
        pairs.sort_by_key(|&(id, _)| id);
        let mut map: Vec<(u64, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match map.last_mut() {
                Some(last) if last.0 == id => last.1 += w,
                _ => map.push((id, w)),
            }
        }
        Self { map }
    }

    /// Bulk constructor for *order-independent* weights (exact integers,
    /// or any set where duplicate-id sums are associative bit-for-bit):
    /// sorts unstably, so duplicates may sum in any order. Faster than
    /// [`SparseFeatures::from_pairs`]; callers must guarantee the weights
    /// make that reordering unobservable.
    pub(crate) fn from_commutative_pairs(mut pairs: Vec<(u64, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut map: Vec<(u64, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match map.last_mut() {
                Some(last) if last.0 == id => last.1 += w,
                _ => map.push((id, w)),
            }
        }
        Self { map }
    }

    /// Add `weight` to feature `id`.
    pub fn add(&mut self, id: u64, weight: f64) {
        match self.map.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.map[pos].1 += weight,
            Err(pos) => self.map.insert(pos, (id, weight)),
        }
    }

    /// Increment feature `id` by one.
    pub fn bump(&mut self, id: u64) {
        self.add(id, 1.0);
    }

    /// The weight of feature `id` (0 when absent).
    pub fn get(&self, id: u64) -> f64 {
        match self.map.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.map[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Number of nonzero features.
    pub fn nnz(&self) -> usize {
        self.map.len()
    }

    /// True when no feature is set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inner product with another vector: a linear merge-join over the two
    /// sorted arrays. Summation runs in increasing shared-id order, so the
    /// result is deterministic and exactly symmetric in its arguments
    /// bit-for-bit.
    pub fn dot(&self, other: &SparseFeatures) -> f64 {
        let a = &self.map;
        let b = &other.map;
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0;
        // Branchless advance: the comparisons compile to conditional moves,
        // so the (data-dependent, unpredictable) interleaving of the two id
        // sequences never stalls the pipeline on a branch miss. Ids match
        // on a fraction of iterations only, so the wasted multiply on
        // non-matches is cheaper than a mispredict per iteration.
        while i < a.len() && j < b.len() {
            let (ka, wa) = a[i];
            let (kb, wb) = b[j];
            let prod = wa * wb;
            sum += if ka == kb { prod } else { 0.0 };
            i += (ka <= kb) as usize;
            j += (kb <= ka) as usize;
        }
        sum
    }

    /// Squared Euclidean norm, `⟨φ, φ⟩`: bit-identical to `self.dot(self)`,
    /// empty vector included (the fold starts at `+0.0`, as `dot` does;
    /// `f64: Sum` starts at `-0.0`).
    pub fn norm_sq(&self) -> f64 {
        self.map.iter().fold(0.0, |sum, &(_, w)| sum + w * w)
    }

    /// The `(id, weight)` entries, sorted by id.
    pub(crate) fn entries(&self) -> &[(u64, f64)] {
        &self.map
    }

    /// Accumulate another vector into this one (merge-join; shared ids sum
    /// as `self + other`, matching [`SparseFeatures::add`]).
    pub fn merge(&mut self, other: &SparseFeatures) {
        if other.map.is_empty() {
            return;
        }
        let a = &self.map;
        let b = &other.map;
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.map = merged;
    }

    /// Scale every weight by `s`.
    pub fn scale(&mut self, s: f64) {
        for (_, w) in &mut self.map {
            *w *= s;
        }
    }

    /// Iterate `(id, weight)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.map.iter().copied()
    }

    /// L1 distance to another vector (used in tests/diagnostics).
    /// Accumulates over the id union in increasing order, so it shares the
    /// determinism guarantee of [`SparseFeatures::dot`].
    pub fn l1_distance(&self, other: &SparseFeatures) -> f64 {
        let a = &self.map;
        let b = &other.map;
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    sum += a[i].1.abs();
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    sum += b[j].1.abs();
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    sum += (a[i].1 - b[j].1).abs();
                    i += 1;
                    j += 1;
                }
            }
        }
        sum += a[i..].iter().map(|&(_, w)| w.abs()).sum::<f64>();
        sum += b[j..].iter().map(|&(_, w)| w.abs()).sum::<f64>();
        sum
    }
}

impl FromIterator<(u64, f64)> for SparseFeatures {
    fn from_iter<T: IntoIterator<Item = (u64, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basic() {
        let a: SparseFeatures = [(1, 2.0), (2, 3.0)].into_iter().collect();
        let b: SparseFeatures = [(2, 4.0), (3, 5.0)].into_iter().collect();
        assert_eq!(a.dot(&b), 12.0);
        assert_eq!(b.dot(&a), 12.0);
        assert_eq!(a.norm_sq(), 13.0);
        for v in [a, b, SparseFeatures::new()] {
            assert_eq!(v.dot(&v).to_bits(), v.norm_sq().to_bits());
        }
        assert_eq!(SparseFeatures::new().norm_sq().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn bump_and_get() {
        let mut f = SparseFeatures::new();
        f.bump(7);
        f.bump(7);
        f.add(9, 0.5);
        assert_eq!(f.get(7), 2.0);
        assert_eq!(f.get(9), 0.5);
        assert_eq!(f.get(10), 0.0);
        assert_eq!(f.nnz(), 2);
        assert!(!f.is_empty());
        assert!(SparseFeatures::new().is_empty());
    }

    #[test]
    fn merge_and_scale() {
        let mut a: SparseFeatures = [(1, 1.0)].into_iter().collect();
        let b: SparseFeatures = [(1, 2.0), (2, 3.0)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get(1), 3.0);
        assert_eq!(a.get(2), 3.0);
        a.scale(0.5);
        assert_eq!(a.get(1), 1.5);
    }

    #[test]
    fn l1_distance_symmetric_and_zero_on_equal() {
        let a: SparseFeatures = [(1, 1.0), (2, 2.0)].into_iter().collect();
        let b: SparseFeatures = [(2, 1.0), (3, 4.0)].into_iter().collect();
        assert_eq!(a.l1_distance(&a), 0.0);
        assert_eq!(a.l1_distance(&b), b.l1_distance(&a));
        assert_eq!(a.l1_distance(&b), 1.0 + 1.0 + 4.0);
    }

    #[test]
    fn dot_merges_mismatched_supports_correctly() {
        let big: SparseFeatures = (0..100).map(|i| (i, 1.0)).collect();
        let small: SparseFeatures = [(5, 2.0), (200, 7.0)].into_iter().collect();
        assert_eq!(big.dot(&small), 2.0);
        assert_eq!(small.dot(&big), 2.0);
    }

    /// `from_pairs` is exactly an `add` loop: duplicates sum in their
    /// original relative order (the sort is stable), new ids land sorted.
    #[test]
    fn from_pairs_matches_add_loop() {
        let pairs = vec![(9, 1.0), (3, 0.25), (9, 2.0), (1, 4.0), (3, 0.5)];
        let bulk = SparseFeatures::from_pairs(pairs.clone());
        let mut loop_built = SparseFeatures::new();
        for (id, w) in pairs {
            loop_built.add(id, w);
        }
        assert_eq!(bulk, loop_built);
        let ids: Vec<u64> = bulk.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 9]);
    }

    #[test]
    fn dot_kind_serde_reads_every_retired_spelling_as_scalar() {
        let v = serde::Serialize::to_value(&DotKind::Scalar);
        assert_eq!(v, serde::Value::String("scalar".to_string()));
        for v in [
            v,
            serde::Value::String("blocked".to_string()),
            serde::Value::Null,
        ] {
            assert_eq!(serde::Deserialize::from_value(&v), Ok(DotKind::Scalar));
        }
        let simd = serde::Value::String("simd".to_string());
        assert!(<DotKind as serde::Deserialize>::from_value(&simd).is_err());
    }

    /// The reproducibility contract: reductions accumulate in id order, so
    /// the same *contents* always give the same bits — regardless of the
    /// insertion order that built each instance (the HashMap-backed
    /// predecessor violated this for non-integer weights).
    #[test]
    fn reductions_are_insertion_order_independent() {
        let pairs: Vec<(u64, f64)> = (0..64u64)
            .map(|i| (i * 977, 0.1 + i as f64 * 0.3))
            .collect();
        let fwd: SparseFeatures = pairs.iter().copied().collect();
        let rev: SparseFeatures = pairs.iter().rev().copied().collect();
        assert_eq!(fwd.dot(&fwd).to_bits(), rev.dot(&rev).to_bits());
        assert_eq!(fwd.dot(&rev).to_bits(), rev.dot(&fwd).to_bits());
        assert_eq!(fwd.norm_sq().to_bits(), rev.norm_sq().to_bits());
        let total_fwd: f64 = fwd.iter().map(|(_, w)| w).sum();
        let total_rev: f64 = rev.iter().map(|(_, w)| w).sum();
        assert_eq!(total_fwd.to_bits(), total_rev.to_bits());
    }
}
