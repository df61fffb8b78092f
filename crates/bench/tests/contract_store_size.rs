//! Size gate for the contract store on the 10⁴-router shape of §2.6.3:
//! its 92.6 M contracts share one fabric prefix table and keep only
//! exclusions and expectation runs per device, so the whole store must
//! stay under 100 MB.

use dctopo::{build_clos, MetadataService};
use rcdc::{generate_contracts, DeviceContracts};

#[test]
fn ten_k_contract_store_stays_under_100_mb() {
    let topology = build_clos(&dcbench::ten_k_shape());
    let meta = MetadataService::from_topology(&topology);
    let contracts = generate_contracts(&meta);
    let count: usize = contracts.iter().map(DeviceContracts::len).sum();
    assert_eq!(count, 92_603_200);
    let bytes = DeviceContracts::resident_bytes(&contracts);
    assert!(
        bytes < 100 << 20,
        "10k contract store holds {:.1} MB",
        bytes as f64 / (1u64 << 20) as f64
    );
}
