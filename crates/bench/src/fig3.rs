//! Figure 3 — cost analysis of (a) Inference, (b) Reproduction,
//! (c) Speciation across generations, in genes processed.
//!
//! The paper's takeaway: "inference is the costliest operation by orders
//! of magnitude followed by Speciation and lastly by Reproduction" —
//! which drives the entire distribution strategy (inference first).

use crate::output::OutputSink;
use crate::{point, run_point};
use clan_core::ClanTopology;
use clan_envs::Workload;
use std::io;

/// Generations traced per workload.
const GENERATIONS: u64 = 8;

/// Runs the serial cost trace on every figure workload.
///
/// # Errors
///
/// Propagates output failures.
pub fn run(sink: &OutputSink) -> io::Result<()> {
    let mut rows = Vec::new();
    for workload in Workload::FIGURES {
        let report = run_point(point(workload, ClanTopology::serial(), 1), GENERATIONS);
        for g in &report.generations {
            rows.push(vec![
                workload.name().to_string(),
                g.generation.to_string(),
                g.costs.inference_genes.to_string(),
                g.costs.speciation_genes.to_string(),
                g.costs.reproduction_genes.to_string(),
            ]);
        }
    }
    sink.table(
        "fig3_cost_analysis",
        "Figure 3: genes processed per generation by compute block",
        &[
            "workload",
            "generation",
            "inference",
            "speciation",
            "reproduction",
        ],
        &rows,
    )?;

    // The ordering claim, checked over the whole trace.
    let mut ok = true;
    for chunk in rows.chunks(GENERATIONS as usize) {
        let (mut inf, mut spec, mut rep) = (0u64, 0u64, 0u64);
        for r in chunk {
            inf += r[2].parse::<u64>().expect("own output");
            spec += r[3].parse::<u64>().expect("own output");
            rep += r[4].parse::<u64>().expect("own output");
        }
        ok &= inf > spec && spec > rep;
        sink.note(&format!(
            "{}: inference/speciation = {:.1}x, speciation/reproduction = {:.1}x",
            chunk[0][0],
            inf as f64 / spec.max(1) as f64,
            spec as f64 / rep.max(1) as f64
        ));
    }
    sink.note(if ok {
        "PAPER CLAIM HOLDS: inference > speciation > reproduction on every workload"
    } else {
        "WARNING: cost ordering deviates from the paper on some workload"
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_csv() {
        let dir = std::env::temp_dir().join("clan-bench-test-fig3");
        let sink = OutputSink::new(&dir).unwrap();
        run(&sink).unwrap();
        let csv = std::fs::read_to_string(dir.join("fig3_cost_analysis.csv")).unwrap();
        assert!(csv.lines().count() > 1 + 5 * GENERATIONS as usize - 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
