//! Per-fabric hop tables (DESIGN.md §13): the reach tables behind the
//! candidate pruning are built once per fabric object and shared by its
//! clones, so compiling the Table-2 cases over and over builds one table
//! per fabric, not one per compile. Own test binary: it reads the
//! process-global `fabric.hop_table.build` counter.

use mapzero::obs::metrics::registry;
use mapzero::prelude::*;

fn builds() -> u64 {
    registry().snapshot().counters.get("fabric.hop_table.build").copied().unwrap_or(0)
}

#[test]
fn table2_compiles_build_one_table_per_fabric() {
    let before = builds();
    // Three fabric objects; every case holds a clone of one of them,
    // made before any table exists.
    let fabrics = [presets::hrea(), presets::morphosys(), presets::adres()];
    let cases: Vec<(Dfg, Cgra)> = fabrics
        .iter()
        .flat_map(|cgra| {
            ["sum", "mac", "conv2", "accumulate", "matmul", "conv3"]
                .map(|k| (suite::by_name(k).expect("suite kernel"), cgra.clone()))
        })
        .collect();
    let mut mapped = 0;
    for round in 0..2u64 {
        let mut config = MapZeroConfig::fast_test();
        config.net.seed = round;
        let mut compiler = Compiler::new(config);
        for (dfg, cgra) in &cases {
            let report = compiler.map(dfg, cgra).expect("Table-2 case maps");
            mapped += usize::from(report.mapping.is_some());
        }
    }
    assert_eq!(mapped, 2 * cases.len());
    assert_eq!(builds() - before, 3, "one hop-table build per fabric object");
    for (_, cgra) in &cases {
        let shared = fabrics.iter().find(|f| f.name() == cgra.name()).expect("its fabric");
        assert!(std::sync::Arc::ptr_eq(cgra.hop_table(), shared.hop_table()));
    }
    assert_eq!(builds() - before, 3);
}
