//! Where does response time go? Run one paper batch with the timeline
//! recorder on and break each job's response into load, own CPU work, and
//! waiting (queueing + communication + sharing) — the kind of accounting
//! the paper could only speculate about ("the effect of various system
//! overheads").
//!
//! ```text
//! cargo run --release --example response_breakdown [static|ts]
//! ```

use parsched::machine::JobSummary;
use parsched::machine::{JobId, SpanKind};
use parsched::prelude::*;

fn main() {
    let policy = match std::env::args().nth(1).as_deref() {
        Some("static") => PolicyKind::Static,
        Some("ts") | None => PolicyKind::TimeSharing,
        Some(other) => {
            eprintln!("unknown policy '{other}', expected static|ts");
            std::process::exit(2);
        }
    };
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(App::MatMul, Arch::Adaptive, 16, &sizes, &cost);

    // Drive the run lifecycle ourselves so we keep the machine (and its
    // timeline) after the run.
    let mut cfg = ExperimentConfig::paper(16, TopologyKind::Ring, policy);
    cfg.machine.record_timeline = true;
    let plan = Run::prepare(&cfg, &batch, None).expect("a realizable configuration");
    let run = Run::build(&cfg, plan, batch, None, |_| {})
        .complete(None)
        .unwrap_or_else(|e| panic!("{e}"));

    println!(
        "{} on one 16-node ring (matmul adaptive batch):\n",
        policy.label()
    );
    println!(
        "{:<22} {:>9} {:>8} {:>9} {:>9} {:>7}",
        "job", "response", "load", "own-cpu", "waiting", "cpu/rt"
    );
    let m = &run.driver.machine;
    for id in 0..m.jobs().len() {
        let s = JobSummary::capture(m, JobId(id as u32));
        let waiting = s
            .response
            .saturating_sub(s.load_time)
            .saturating_sub(s.cpu_time / s.width.max(1) as u64);
        println!(
            "{:<22} {:>9} {:>8} {:>9} {:>9} {:>6.2}",
            s.name,
            format!("{}", s.response),
            format!("{}", s.load_time),
            format!("{}", s.cpu_time),
            format!("{}", waiting),
            s.cpu_share(),
        );
    }

    let tl = &m.timeline;
    println!(
        "\nmachine-wide spans: compute {}, handlers {}, message lifetimes {} \
         ({} spans recorded)",
        tl.total(SpanKind::Compute),
        tl.total(SpanKind::Handler),
        tl.total(SpanKind::Message),
        tl.spans().len(),
    );
    println!(
        "handler time is CPU *stolen* from computation at high priority — \
         the paper's \"message congestion\" made visible."
    );
}
