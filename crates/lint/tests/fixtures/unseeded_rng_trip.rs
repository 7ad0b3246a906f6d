// Fixture: a seeding constructor whose argument names no seed must trip
// the seed check. (The nondeterministic constructors are banned by
// clippy.toml and by the rand shim's API, which has none of them.)
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn magic_number(run_index: u64) -> StdRng {
    StdRng::seed_from_u64(run_index.wrapping_mul(31))
}
