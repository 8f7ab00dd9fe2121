//! The frozen netlist's derived structures against naive
//! recomputations, over every architecture at every width it
//! supports, pruned and raw: the CSR fanout lists each net's sinks in
//! ascending cell order (a cell reading a net on two pins twice), and
//! every net is named after its driver.

use optpower_mult::{Architecture, MultiplierDesign};
use optpower_netlist::{CellId, NetId, Netlist, NetlistError};

fn check(nl: &Netlist) {
    let mut sinks: Vec<Vec<CellId>> = vec![Vec::new(); nl.nets().len()];
    for (i, cell) in nl.cells().iter().enumerate() {
        for &pin in cell.inputs.iter() {
            sinks[pin.index()].push(CellId(i as u32));
        }
    }
    for (n, expected) in sinks.iter().enumerate() {
        let id = NetId(n as u32);
        assert_eq!(nl.fanout(id), expected.as_slice(), "{} net {n}", nl.name());
        let driver = nl.net(id).driver;
        assert_eq!(
            nl.net_name(id),
            format!("{}__o", nl.cell(driver).name),
            "{} net {n}",
            nl.name()
        );
    }
}

fn check_all(generate: fn(Architecture, usize) -> Result<MultiplierDesign, NetlistError>) {
    for arch in Architecture::ALL {
        for width in (2..=32).filter(|&w| arch.supports_width(w)) {
            let design = generate(arch, width).unwrap_or_else(|e| panic!("{arch} w{width}: {e}"));
            check(&design.netlist);
        }
    }
}

#[test]
fn pruned_netlists_match_naive_fanout_and_names() {
    check_all(Architecture::generate);
}

#[test]
fn raw_netlists_match_naive_fanout_and_names() {
    check_all(Architecture::generate_raw);
}
