//! Helpers shared by the integration suites. Each test binary pulls
//! this in with `mod common;` and uses a subset of it.
#![allow(dead_code)]

pub mod programs;
pub mod shapes;

/// The fixed default seed for randomized suites (stress, chaos) when
/// [`ORCHESTRA_TEST_SEED`](test_seed) is unset.
pub const DEFAULT_TEST_SEED: u64 = 0x0c4a_05ca_11ab_5eed;

/// The RNG seed randomized suites derive schedules and task costs
/// from: the `ORCHESTRA_TEST_SEED` environment variable (decimal or
/// `0x`-prefixed hex) when set, else [`DEFAULT_TEST_SEED`]. Suites
/// include the seed in their failure messages so a failing run can be
/// reproduced exactly by exporting the printed value.
pub fn test_seed() -> u64 {
    std::env::var("ORCHESTRA_TEST_SEED")
        .ok()
        .and_then(|raw| {
            let s = raw.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
                None => s.replace('_', "").parse().ok(),
            }
        })
        .unwrap_or(DEFAULT_TEST_SEED)
}

/// Whether the long chaos matrix is enabled (`ORCHESTRA_CHAOS_FULL=1`;
/// any value but `"0"` counts). The default matrix stays small enough
/// for debug-mode CI.
pub fn chaos_full() -> bool {
    std::env::var("ORCHESTRA_CHAOS_FULL").is_ok_and(|v| v != "0")
}
