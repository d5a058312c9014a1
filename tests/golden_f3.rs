//! Bit-exact golden test for the Figure 3 grid (matmul, fixed
//! architecture, all partition sizes/topologies including the 16-node
//! hypercube).
//!
//! The simulator is deterministic, so these are not tolerances but exact
//! `f64` bit patterns: any engine, network or scheduling change that moves
//! a single event reorders something and trips this test. Performance work
//! on the hot paths must leave every value untouched.
//!
//! To re-record after an *intentional* model change (and after updating
//! EXPERIMENTS.md to match):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_f3 -- --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDEN`.

use parsched::prelude::*;

/// (config label, static mean bits, time-sharing mean bits).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("1", 0x4011085ca445c506, 0x4011085ca445c506),
    ("2L", 0x400afc1dfd4108df, 0x400a33d528bbe0ec),
    ("4L", 0x40083efa398ee457, 0x40089b9b7ea11ac3),
    ("4R", 0x40082e5ce80d7001, 0x4008924bb079fd3f),
    ("4M", 0x400832e2f890d380, 0x400894e9d35ca2b2),
    ("4H", 0x400832e2f890d380, 0x400894e9d35ca2b2),
    ("8L", 0x400c6d09bd0f8cdd, 0x400d7b4a6a204910),
    ("8R", 0x400b9d81d24a06ab, 0x400d5339042d8c2a),
    ("8M", 0x400bfc0217988934, 0x400d650361bce704),
    ("8H", 0x400bee868d92132c, 0x400d5fc3f3346a96),
    ("16L", 0x40154b5022ad291a, 0x401bda4377e4681e),
    ("16R", 0x401338525bed66a0, 0x401bfbb7431a286d),
    ("16M", 0x4013cfe180381eaa, 0x401a56609bbaf5d0),
    ("16H", 0x4013a18e77044bf2, 0x4019d1f2935ae62a),
];

fn fig3_table() -> FigureTable {
    fig3(&FigureOpts {
        include_16h: true,
        ..FigureOpts::default()
    })
    .expect("fig3 grid simulates")
}

#[test]
fn fig3_grid_is_bit_identical_to_golden() {
    let table = fig3_table();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        for r in &table.rows {
            println!(
                "    (\"{}\", 0x{:016x}, 0x{:016x}),",
                r.label,
                r.static_mean
                    .expect("fig3 rows carry both policies")
                    .to_bits(),
                r.ts_mean.expect("fig3 rows carry both policies").to_bits(),
            );
        }
        return;
    }
    assert_eq!(
        table.rows.len(),
        GOLDEN.len(),
        "fig3 grid shape changed: {:?}",
        table
            .rows
            .iter()
            .map(|r| r.label.as_str())
            .collect::<Vec<_>>()
    );
    for (r, (label, static_bits, ts_bits)) in table.rows.iter().zip(GOLDEN) {
        assert_eq!(r.label, *label, "row order changed");
        let s = r.static_mean.expect("fig3 rows carry both policies");
        let t = r.ts_mean.expect("fig3 rows carry both policies");
        assert_eq!(
            s.to_bits(),
            *static_bits,
            "{label} static drifted: got {s}, golden {}",
            f64::from_bits(*static_bits)
        );
        assert_eq!(
            t.to_bits(),
            *ts_bits,
            "{label} ts drifted: got {t}, golden {}",
            f64::from_bits(*ts_bits)
        );
    }
}
