//! Size gate for the FIB store on the 1096-device E2 shape: every
//! table of one simulation keeps runs over one shared prefix table, so
//! the whole store must hold under one byte per FIB entry (an
//! expanded entry is 16 bytes).

use bgpsim::{simulate, Fib, SimConfig};
use dctopo::build_clos;

#[test]
fn fib_store_holds_under_one_byte_per_entry() {
    let (_, params) = dcbench::scale_shapes()
        .into_iter()
        .find(|(name, _)| *name == "1096-devices")
        .expect("the E2 shapes include 1096 devices");
    let topology = build_clos(&params);
    let fibs = simulate(&topology, &SimConfig::healthy());
    let entries: usize = fibs.iter().map(Fib::len).sum();
    assert!(entries > 1_000_000, "{entries} entries");
    let bytes = Fib::resident_bytes(&fibs);
    assert!(
        bytes < entries,
        "{entries} entries held in {bytes} bytes ({:.2} B/entry)",
        bytes as f64 / entries as f64
    );
}
