//! Support for the CLI `serve` subcommand: a mutable snapshot source
//! the churn driver rewrites while the sharded validation service
//! keeps pulling from it.
//!
//! Shared between the `validatedc` binary and the integration tests so
//! the exact churn mechanics the CLI exercises are what the tests
//! validate.

use bgpsim::{Fib, FibBuilder};
use dctopo::DeviceId;
use netprim::wire::WireSnapshot;
use rcdc::pipeline::SnapshotSource;
use std::sync::RwLock;

/// A [`SnapshotSource`] over tables the driver mutates between pulls —
/// the live network under route churn, as seen by the service's shard
/// workers.
pub struct ChurningSource {
    fibs: RwLock<Vec<Fib>>,
}

impl ChurningSource {
    /// Wrap the fleet's initial converged tables.
    pub fn new(fibs: Vec<Fib>) -> Self {
        ChurningSource {
            fibs: RwLock::new(fibs),
        }
    }

    /// Replace one device's table (the next pull observes it).
    pub fn set(&self, fib: Fib) {
        let device = fib.device().0 as usize;
        self.fibs.write().unwrap()[device] = fib;
    }

    /// The device's current table.
    pub fn get(&self, device: DeviceId) -> Fib {
        self.fibs.read().unwrap()[device.0 as usize].clone()
    }
}

impl SnapshotSource for ChurningSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        self.fibs.read().unwrap()[device.0 as usize].to_wire()
    }
}

/// Drop the `index`-th (mod eligible) non-local route from a table —
/// the route-withdrawal churn `serve` injects. A table with no
/// droppable routes is returned unchanged.
pub fn drop_route(fib: &Fib, index: usize) -> Fib {
    let eligible: Vec<_> = fib
        .entries()
        .filter(|e| !e.local)
        .map(|e| e.prefix)
        .collect();
    if eligible.is_empty() {
        return fib.clone();
    }
    let target = eligible[index % eligible.len()];
    let mut b = FibBuilder::new(fib.device());
    for e in fib.entries() {
        if e.prefix == target {
            continue;
        }
        b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::{simulate, SimConfig};

    #[test]
    fn churned_source_serves_latest_table() {
        let f = dctopo::generator::figure3();
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let source = ChurningSource::new(fibs.clone());
        let d = f.tors[0];
        let before = Fib::from_wire(&source.pull(d)).unwrap();
        assert_eq!(before.content_hash(), fibs[d.0 as usize].content_hash());

        let dropped = drop_route(&before, 0);
        assert!(dropped.entries().len() < before.entries().len());
        source.set(dropped.clone());
        let after = Fib::from_wire(&source.pull(d)).unwrap();
        assert_eq!(after.content_hash(), dropped.content_hash());
        // Other devices are untouched.
        let other = f.tors[1];
        assert_eq!(
            Fib::from_wire(&source.pull(other)).unwrap().content_hash(),
            fibs[other.0 as usize].content_hash()
        );
    }
}
