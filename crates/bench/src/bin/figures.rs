//! Regenerate every table/figure of the paper (and the ablations) and print
//! the rows the paper plots.
//!
//! ```text
//! figures [all|fig3|...|fig6|a1|...|a12] [--csv] [--serial] [--include-16h] [--out DIR] [--seed N]
//! ```
//!
//! With no arguments, prints the four paper figures. `all` adds the
//! ablations. Output is a text table per figure (CSV with `--csv`);
//! `--out DIR` additionally writes `<id>.csv` and `<id>.md` per figure.

use parsched_core::prelude::*;

type FigFn = fn(&FigureOpts) -> Result<FigureTable, RunError>;

const FIGURES: &[(&str, &str, FigFn)] = &[
    ("fig3", "Figure 3: matmul, fixed architecture", fig3),
    ("fig4", "Figure 4: matmul, adaptive architecture", fig4),
    ("fig5", "Figure 5: sort, fixed architecture", fig5),
    ("fig6", "Figure 6: sort, adaptive architecture", fig6),
    (
        "a1",
        "Ablation A1: service-demand variance crossover",
        ablation_variance,
    ),
    ("a2", "Ablation A2: topology sensitivity", ablation_topology),
    ("a3", "Ablation A3: wormhole conjecture", ablation_wormhole),
    ("a4", "Ablation A4: quantum rule and size", ablation_quantum),
    (
        "a5",
        "Ablation A5: hybrid set-size (MPL) tuning",
        ablation_mpl,
    ),
    (
        "a6",
        "Ablation A6: system-overhead sensitivity",
        ablation_overheads,
    ),
    (
        "a7",
        "Ablation A7: memory-size sensitivity",
        ablation_memory,
    ),
    (
        "a8",
        "Ablation A8: flow-control design choice",
        ablation_flow_control,
    ),
    (
        "a9",
        "Ablation A9: gang scheduling vs uncoordinated",
        ablation_gang,
    ),
    (
        "a10",
        "Ablation A10: open-arrival load sweep",
        ablation_load,
    ),
    (
        "a11",
        "Ablation A11: pipeline workload & coscheduling",
        ablation_pipeline,
    ),
    (
        "a12",
        "Ablation A12: space-sharing partition-size tuning",
        ablation_partition_tuning,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let serial = args.iter().any(|a| a == "--serial");
    let include_16h = args.iter().any(|a| a == "--include-16h");
    let out_dir: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let seed: Option<u64> = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let mut skip_next = false;
    let selectors: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--out" || *a == "--seed" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|a| a.as_str())
        .collect();
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    let opts = FigureOpts {
        parallel: !serial,
        include_16h,
        seed: seed.unwrap_or(FigureOpts::default().seed),
        ..FigureOpts::default()
    };

    let wanted: Vec<&(&str, &str, FigFn)> = if selectors.is_empty() {
        FIGURES.iter().take(4).collect()
    } else if selectors.contains(&"all") {
        FIGURES.iter().collect()
    } else {
        FIGURES
            .iter()
            .filter(|(id, _, _)| selectors.contains(id))
            .collect()
    };
    if wanted.is_empty() {
        eprintln!(
            "unknown figure selector; known: all, {}",
            FIGURES
                .iter()
                .map(|(id, _, _)| *id)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }

    for (id, caption, f) in wanted {
        let start = std::time::Instant::now();
        match f(&opts) {
            Ok(table) => {
                println!("== {id}: {caption} ==");
                if csv {
                    print!("{}", table.to_csv());
                } else {
                    print!("{}", table.to_text());
                }
                if let Some(dir) = &out_dir {
                    let base = std::path::Path::new(dir).join(id);
                    std::fs::write(base.with_extension("csv"), table.to_csv()).expect("write csv");
                    std::fs::write(base.with_extension("md"), table.to_markdown())
                        .expect("write markdown");
                }
                println!("({:.1}s wall)\n", start.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("== {id}: FAILED ==\n{e}");
                std::process::exit(1);
            }
        }
    }
}
