//! Dense bipolar hypervectors and the core VSA operations.
//!
//! Hyperdimensional computing (the vector-symbolic architecture framework
//! the paper benchmarks, refs \[37\]\[41\]\[42\]) represents everything as
//! high-dimensional vectors with three operations: *binding* (elementwise
//! multiply), *bundling* (elementwise add, then sign), and *similarity*
//! (dot product). We use the bipolar (±1) flavor, which quantizes cleanly
//! to the multi-bit symbols FeReX stores.

use rand::Rng;

/// A dense bipolar hypervector (components ∈ {−1, +1}).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypervector {
    components: Vec<i8>,
}

impl Hypervector {
    /// A uniformly random hypervector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Hypervector {
            components: (0..dim).map(|_| if rng.gen::<bool>() { 1 } else { -1 }).collect(),
        }
    }

    /// Builds a hypervector from raw ±1 components.
    ///
    /// # Panics
    ///
    /// Panics if any component is not ±1 or the slice is empty.
    pub fn from_components(components: Vec<i8>) -> Self {
        assert!(!components.is_empty(), "dimension must be positive");
        assert!(components.iter().all(|&c| c == 1 || c == -1), "components must be ±1");
        Hypervector { components }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// The raw components.
    pub fn components(&self) -> &[i8] {
        &self.components
    }

    /// Binding: elementwise multiplication. Produces a vector dissimilar to
    /// both operands; self-inverse.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn bind(&self, other: &Hypervector) -> Hypervector {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        Hypervector {
            components: self
                .components
                .iter()
                .zip(&other.components)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Dot-product similarity in `[-dim, dim]`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn similarity(&self, other: &Hypervector) -> i64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.components.iter().zip(&other.components).map(|(&a, &b)| (a as i64) * (b as i64)).sum()
    }

    /// Hamming distance between the sign patterns (0 = identical).
    pub fn hamming(&self, other: &Hypervector) -> usize {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.components.iter().zip(&other.components).filter(|(a, b)| a != b).count()
    }
}

/// An integer accumulator for bundling many hypervectors before taking the
/// sign — the class-prototype representation during HDC training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accumulator {
    sums: Vec<i64>,
}

impl Accumulator {
    /// A zero accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Accumulator { sums: vec![0; dim] }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.sums.len()
    }

    /// Adds a hypervector (optionally negated) into the bundle.
    pub fn add(&mut self, hv: &Hypervector, sign: i64) {
        assert_eq!(self.dim(), hv.dim(), "dimension mismatch");
        for (s, &c) in self.sums.iter_mut().zip(hv.components()) {
            *s += sign * c as i64;
        }
    }

    /// The raw component sums.
    pub fn sums(&self) -> &[i64] {
        &self.sums
    }

    /// Collapses the bundle to a bipolar hypervector (sign; ties to +1).
    pub fn to_hypervector(&self) -> Hypervector {
        Hypervector { components: self.sums.iter().map(|&s| if s >= 0 { 1 } else { -1 }).collect() }
    }

    /// Dot-product similarity between the (un-collapsed) bundle and a
    /// hypervector — the higher-precision score iterative training uses.
    pub fn similarity(&self, hv: &Hypervector) -> i64 {
        assert_eq!(self.dim(), hv.dim(), "dimension mismatch");
        self.sums.iter().zip(hv.components()).map(|(&s, &c)| s * c as i64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_hypervectors_are_quasi_orthogonal() {
        let mut r = rng();
        let a = Hypervector::random(4096, &mut r);
        let b = Hypervector::random(4096, &mut r);
        assert_eq!(a.similarity(&a), 4096);
        // Random pair: similarity concentrates near 0 (±~2√d).
        assert!(a.similarity(&b).abs() < 300, "similarity {}", a.similarity(&b));
    }

    #[test]
    fn binding_is_self_inverse_and_dissimilar() {
        let mut r = rng();
        let a = Hypervector::random(2048, &mut r);
        let key = Hypervector::random(2048, &mut r);
        let bound = a.bind(&key);
        assert_eq!(bound.bind(&key), a);
        assert!(a.similarity(&bound).abs() < 250);
    }

    #[test]
    fn bundling_preserves_similarity_to_members() {
        let mut r = rng();
        let members: Vec<Hypervector> = (0..5).map(|_| Hypervector::random(4096, &mut r)).collect();
        let outsider = Hypervector::random(4096, &mut r);
        let mut acc = Accumulator::new(4096);
        for m in &members {
            acc.add(m, 1);
        }
        let bundle = acc.to_hypervector();
        for m in &members {
            assert!(bundle.similarity(m) > outsider.similarity(m) + 500, "bundle lost a member");
        }
    }

    #[test]
    fn hamming_and_similarity_are_consistent() {
        let mut r = rng();
        let a = Hypervector::random(1000, &mut r);
        let b = Hypervector::random(1000, &mut r);
        let h = a.hamming(&b);
        // similarity = dim − 2·hamming for bipolar vectors.
        assert_eq!(a.similarity(&b), 1000 - 2 * h as i64);
    }

    #[test]
    fn accumulator_sign_with_negation() {
        let hv = Hypervector::from_components(vec![1, -1, 1, -1]);
        let mut acc = Accumulator::new(4);
        acc.add(&hv, 1);
        acc.add(&hv, 1);
        acc.add(&hv, -1);
        assert_eq!(acc.sums(), &[1, -1, 1, -1]);
        assert_eq!(acc.to_hypervector(), hv);
        assert_eq!(acc.similarity(&hv), 4);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn invalid_components_rejected() {
        let _ = Hypervector::from_components(vec![1, 0, -1]);
    }
}
