//! Weight initialization (Xavier/Glorot), seeded and deterministic.

use rand::Rng;

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight:
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_vec<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Vec<f32> {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-a..=a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn xavier_within_bound_and_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let v1 = xavier_vec(&mut r1, 16, 8);
        let v2 = xavier_vec(&mut r2, 16, 8);
        assert_eq!(v1, v2);
        let a = (6.0f32 / 24.0).sqrt();
        assert!(v1.iter().all(|x| x.abs() <= a));
        assert_eq!(v1.len(), 128);
    }
}
