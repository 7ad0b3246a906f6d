//! Small random-sampling helpers (standard normal via Box–Muller) so the
//! workspace does not need `rand_distr`.

use rand::Rng;

/// One draw from the standard normal distribution `N(0, 1)`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller; u1 is kept away from 0 to avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `N(mean, std²)` draw as `f32`.
pub fn normal_f32<R: Rng + ?Sized>(rng: &mut R, mean: f32, std: f32) -> f32 {
    mean + std * standard_normal(rng) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
