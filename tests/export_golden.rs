//! Byte goldens for the structural exports: `to_verilog` and `to_dot`
//! of the RCA and the sequential multiplier at width 4, and a short
//! VCD trace of the RCA over every net. All three formats print cell
//! or net names, so a change to how the netlist stores or derives
//! names shows up here as a byte diff.

use optpower_mult::Architecture;
use optpower_netlist::{to_dot, to_verilog};
use optpower_sim::{VcdRecorder, ZeroDelaySim};

fn golden_compare(path: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "golden drift at {} (UPDATE_GOLDENS=1 refreshes after intentional changes)",
        path.display()
    );
}

#[test]
fn verilog_and_dot_exports_match_goldens() {
    for (arch, stem) in [
        (Architecture::Rca, "rca_w4"),
        (Architecture::Sequential, "sequential_w4"),
    ] {
        let design = arch.generate(4).unwrap();
        golden_compare(
            &format!("tests/golden/export_{stem}.v"),
            &to_verilog(&design.netlist),
        );
        golden_compare(
            &format!("tests/golden/export_{stem}.dot"),
            &to_dot(&design.netlist, |_| None),
        );
    }
}

#[test]
fn all_nets_vcd_matches_golden() {
    let design = Architecture::Rca.generate(4).unwrap();
    let mut sim = ZeroDelaySim::new(&design.netlist);
    let mut vcd = VcdRecorder::all_nets(&design.netlist);
    for i in 0..8u64 {
        sim.set_input_bits("a", (i * 2654435761) & 0xF);
        sim.set_input_bits("b", (i * 40503) & 0xF);
        sim.step();
        vcd.sample(&sim);
    }
    golden_compare("tests/golden/export_rca_w4.vcd", &vcd.finish());
}
