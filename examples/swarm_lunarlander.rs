//! An 8-Pi edge swarm learns LunarLander-v2 under each CLAN
//! configuration; compares simulated wall-clock and communication.
//!
//! This is the paper's core comparison (Figures 4-7) on one workload:
//! CLAN_DCS distributes inference, CLAN_DDS also distributes
//! reproduction (and drowns in genome traffic), CLAN_DDA speciates
//! asynchronously on per-agent clans and barely communicates at all.
//!
//! ```text
//! cargo run --release --example swarm_lunarlander
//! ```

use clan::core::{ClanDriver, ClanTopology, RunReport};
use clan::envs::Workload;

const AGENTS: usize = 8;
const GENERATIONS: u64 = 6;

fn run(topology: ClanTopology) -> RunReport {
    ClanDriver::builder(Workload::LunarLander)
        .topology(topology)
        .agents(AGENTS)
        .population_size(150)
        .seed(7)
        .build()
        .expect("valid configuration")
        .run(GENERATIONS)
        .expect("run")
}

fn main() {
    println!("== {AGENTS}-agent Raspberry Pi swarm on LunarLander-v2 ==\n");
    let serial = ClanDriver::builder(Workload::LunarLander)
        .population_size(150)
        .seed(7)
        .build()
        .expect("valid configuration")
        .run(GENERATIONS)
        .expect("run");

    let reports = [
        serial,
        run(ClanTopology::dcs()),
        run(ClanTopology::dds()),
        run(ClanTopology::dda()),
    ];

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "config", "total(s)", "infer(s)", "evolve(s)", "comm(s)", "floats sent", "best fit"
    );
    for r in &reports {
        let t = r.mean_timeline;
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12} {:>9.1}",
            r.topology_name,
            t.total_s(),
            t.inference_s,
            t.evolution_s,
            t.communication_s,
            r.ledger.total_floats() / GENERATIONS,
            r.best_fitness,
        );
    }

    println!("\ncommunication breakdown (floats per generation):");
    println!("{:<10} {:<24} {:>12}", "config", "message kind", "floats");
    for r in &reports[1..] {
        for (kind, entry) in r.ledger.rows() {
            if entry.floats > 0 {
                println!(
                    "{:<10} {:<24} {:>12}",
                    r.topology_name,
                    kind.to_string(),
                    entry.floats / GENERATIONS
                );
            }
        }
    }

    let dcs = &reports[1];
    let dda = &reports[3];
    println!(
        "\nCLAN_DDA is {:.1}x faster per generation than CLAN_DCS and sends {:.0}x fewer floats.",
        dcs.mean_timeline.total_s() / dda.mean_timeline.total_s(),
        dcs.ledger.total_floats() as f64 / dda.ledger.total_floats().max(1) as f64
    );
    println!("(Fig 7b caveat: fewer genomes per clan costs convergence speed.)");
}
