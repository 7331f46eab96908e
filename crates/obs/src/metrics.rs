//! Scope-owned named counters.
//!
//! Names follow the `subsystem.metric` convention documented in
//! DESIGN.md §8 (`demand.cells`, `fig2.grid_points`,
//! `orbit.mc_samples`, ...). Updates land in the calling thread's
//! current [`crate::scope::ObsScope`] (the process-default scope when
//! none was entered), under the scope's one registry lock. Every
//! update happens once per instrumented call — per sweep, per cache
//! access, per file written — never per data item. Values are only
//! ever read back by the run manifest — counters can never perturb
//! artifact bytes.

use crate::scope;
use std::collections::BTreeMap;

/// Adds `delta` to the named counter (creating it at zero) in the
/// current scope.
pub fn counter_add(name: &str, delta: u64) {
    scope::with_reg(|reg| match reg.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            reg.counters.insert(name.to_string(), delta);
        }
    });
}

/// The value of a counter in the current scope (zero when never
/// touched).
pub fn counter_value(name: &str) -> u64 {
    scope::with_reg(|reg| reg.counters.get(name).copied().unwrap_or(0))
}

/// A copy of every counter of the current scope: name → value.
pub fn snapshot() -> BTreeMap<String, u64> {
    scope::with_reg(|reg| reg.counters.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let _lock = crate::test_lock();
        counter_add("t_m.counter", 2);
        counter_add("t_m.counter", 3);
        assert_eq!(counter_value("t_m.counter"), 5);
    }
}
