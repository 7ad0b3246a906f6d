//! The `fedval-serve` binary: synthetic-FL valuation over HTTP.
//!
//! Builds an [`FlUtility`] over a seeded synthetic federation, stacks the
//! full service on it via [`fedval_fl::service::serve`] (parallel
//! fan-out and coalescing server over the utility's round-0 trajectory
//! table — see [`FlServiceConfig::from_env`] for the knobs), and fronts
//! it with a [`WireServer`]. SIGTERM/SIGINT drain cleanly: the listener stops
//! accepting, in-flight runs resolve with the typed shutdown error
//! (mapped to 503) and every thread is joined before exit.
//!
//! Environment (all optional):
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `FEDVAL_ADDR` | `127.0.0.1:8089` | bind address |
//! | `FEDVAL_MAX_INFLIGHT` | `64` | admission-control cap (429 above it) |
//! | `FEDVAL_RETRY_AFTER_SECS` | `1` | `Retry-After` on 429 |
//! | `FEDVAL_WIRE_CLIENTS` | `4` | synthetic federation size, `1..=128` (else exit 2) |
//! | `FEDVAL_WIRE_ROUNDS` | `2` | FedAvg rounds per coalition |
//! | `FEDVAL_WIRE_SEED` | `21` | data / partition / training seed base |
//! | plus the [`FlServiceConfig::from_env`] service knobs | | |

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fedval_core::coalition::MAX_CLIENTS;
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::service::{serve, FlServiceConfig};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use fedval_serve::server::{WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Set by the signal handler; the main loop polls it.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[allow(
    unsafe_code,
    reason = "a foreign call: std has no way to install a signal handler"
)]
fn install_signal_handlers() {
    // No libc crate in the image: declare the one POSIX entry point we
    // need. The handler only stores to an atomic — async-signal-safe.
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as *const () as usize;
    // SAFETY: `signal` is the POSIX entry point declared above, called with
    // valid signal numbers and the address of an `extern "C" fn(i32)` that
    // only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// A federation size the service can value: the partition needs at least
/// one client, and a coalition mask holds at most [`MAX_CLIENTS`].
fn checked_clients(clients: usize) -> Result<usize, String> {
    if (1..=MAX_CLIENTS).contains(&clients) {
        Ok(clients)
    } else {
        Err(format!(
            "fedval-serve: FEDVAL_WIRE_CLIENTS must be in 1..={MAX_CLIENTS}, got {clients}"
        ))
    }
}

/// A seeded synthetic federation — the same construction the service
/// tests use, sized by environment.
fn synthetic_utility(clients: usize, rounds: usize, seed: u64) -> FlUtility {
    let gen = MnistLike::new(seed);
    let (train, test) = gen.generate_split(24 * clients, 12 * clients, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let parts = SyntheticSetup::SameSizeSameDist.partition(&train, clients, &mut rng);
    FlUtility::new(
        parts,
        test,
        ModelSpec::Linear,
        FedAvgConfig {
            rounds,
            local_epochs: 1,
            seed: seed + 3,
            ..Default::default()
        },
    )
}

fn main() {
    install_signal_handlers();
    let clients = match checked_clients(env_usize("FEDVAL_WIRE_CLIENTS", 4)) {
        Ok(clients) => clients,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let rounds = env_usize("FEDVAL_WIRE_ROUNDS", 2);
    let seed = env_u64("FEDVAL_WIRE_SEED", 21);
    let utility = synthetic_utility(clients, rounds, seed);
    let (valuation, cache) = serve(utility, FlServiceConfig::from_env());
    let cfg = WireConfig {
        addr: std::env::var("FEDVAL_ADDR").unwrap_or_else(|_| "127.0.0.1:8089".to_string()),
        max_inflight: env_usize("FEDVAL_MAX_INFLIGHT", 64),
        retry_after_secs: env_u64("FEDVAL_RETRY_AFTER_SECS", 1),
        ..WireConfig::default()
    };
    let wire = match WireServer::start(valuation, cfg) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("fedval-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "fedval-serve: listening on http://{} ({clients} clients, {rounds} rounds, seed {seed})",
        wire.addr()
    );
    while !TERM.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fedval-serve: draining…");
    wire.shutdown();
    eprintln!(
        "fedval-serve: stopped (trajectory cache held {} bytes)",
        cache.stats().bytes
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_size_must_fit_a_coalition_mask() {
        assert_eq!(checked_clients(1), Ok(1));
        assert_eq!(checked_clients(MAX_CLIENTS), Ok(MAX_CLIENTS));
        for bad in [0, MAX_CLIENTS + 1, 200] {
            let Err(msg) = checked_clients(bad) else {
                panic!("{bad} clients accepted");
            };
            assert!(msg.contains("FEDVAL_WIRE_CLIENTS"), "{msg}");
            assert!(msg.contains("1..=128"), "{msg}");
            assert!(!msg.contains('\n'), "one line: {msg}");
        }
    }
}
