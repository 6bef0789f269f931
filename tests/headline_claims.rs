//! The paper's headline quantitative claims, asserted end-to-end against
//! the full stack (real NEAT + environments + cost models).
//!
//! These are the bullet points of the paper's introduction:
//! - "algorithmic modifications to reduce communication by up to 3.6x
//!   during the learning phase"
//! - "allow NE to scale up to 65 nodes and show a 2 times improvement in
//!   performance over Hard Scaled NE"
//! - "bring down the share of communication to 22% vs 50% when naively
//!   scaled as is"
//! - "Price-Performance Product benefit of 2.5x"

use clan::core::{ClanDriver, ClanTopology, RunReport};
use clan::envs::Workload;
use clan::hw::PlatformKind;

const SEED: u64 = 9;
const GENS: u64 = 3;

fn run(topo: ClanTopology, agents: usize, single_step: bool, pop: usize) -> RunReport {
    let mut b = ClanDriver::builder(Workload::AirRaid)
        .topology(topo)
        .agents(agents)
        .population_size(pop)
        .seed(SEED);
    if single_step {
        b = b.single_step();
    }
    b.build().expect("config").run(GENS).expect("run")
}

fn topo(kind: &str, agents: usize) -> ClanTopology {
    if agents == 1 {
        ClanTopology::serial()
    } else if kind == "DCS" {
        ClanTopology::dcs()
    } else if kind == "DDS" {
        ClanTopology::dds()
    } else {
        ClanTopology::dda()
    }
}

#[test]
fn communication_reduced_by_around_3_6x_vs_dds() {
    // Comparing steady-state traffic per generation (init amortized out).
    let dds = run(topo("DDS", 2), 2, true, 150);
    let dda = run(topo("DDA", 2), 2, true, 150);
    let dds_share = dds.mean_timeline.shares().communication;
    let dda_share = dda.mean_timeline.shares().communication;
    let ratio = dds_share / dda_share;
    assert!(
        (2.0..=8.0).contains(&ratio),
        "communication share reduction should be around the paper's 3.6x, got {ratio:.1}x"
    );
}

#[test]
fn dda_beats_dcs_by_about_2x_at_scale_single_step() {
    let mut ratios = Vec::new();
    for agents in [12usize, 24, 40, 60] {
        let dcs = run(topo("DCS", agents), agents, true, 150).mean_generation_s();
        let dda = run(topo("DDA", agents), agents, true, 150).mean_generation_s();
        ratios.push(dcs / dda);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (1.5..=3.0).contains(&mean),
        "mean DCS/DDA speedup should be around 2x, got {mean:.2} ({ratios:?})"
    );
}

#[test]
fn dda_scales_beyond_dcs_against_serial_baseline() {
    let serial = run(ClanTopology::serial(), 1, true, 150).mean_generation_s();
    // DCS loses to serial somewhere near 40 units.
    let dcs_40 = run(topo("DCS", 40), 40, true, 150).mean_generation_s();
    assert!(
        dcs_40 > serial * 0.85,
        "DCS at 40 units should be at or past the serial crossover: {dcs_40:.1} vs serial {serial:.1}"
    );
    // DDA is still clearly ahead at 40 and only crosses much later.
    let dda_40 = run(topo("DDA", 40), 40, true, 150).mean_generation_s();
    assert!(
        dda_40 < serial,
        "DDA at 40 units should still beat serial: {dda_40:.1} vs {serial:.1}"
    );
    let dda_100 = run(topo("DDA", 100), 100, true, 200).mean_generation_s();
    assert!(
        dda_100 > dda_40,
        "DDA must eventually degrade: {dda_100:.1} vs {dda_40:.1}"
    );
}

#[test]
fn six_pi_swarm_beats_jetson_on_price_performance() {
    let jetson = ClanDriver::builder(Workload::AirRaid)
        .platform(PlatformKind::JetsonCpu)
        .population_size(150)
        .seed(SEED)
        .build()
        .expect("config")
        .run(GENS)
        .expect("run")
        .mean_generation_s();
    let six_pi = run(ClanTopology::dda(), 6, false, 150).mean_generation_s();
    let ppp = (600.0 * jetson) / (240.0 * six_pi);
    assert!(
        ppp > 1.5,
        "the paper reports a 2.5x PPP benefit at 6 Pis; got {ppp:.2}x"
    );
}

#[test]
fn pi_swarm_uses_less_energy_than_hpc_for_same_work() {
    // §I: "matching the performance of higher-end computing devices at
    // much lower energy and dollar cost."
    let hpc = ClanDriver::builder(Workload::AirRaid)
        .platform(PlatformKind::HpcCpu)
        .population_size(150)
        .seed(SEED)
        .build()
        .expect("config")
        .run(GENS)
        .expect("run");
    let swarm = run(ClanTopology::dda(), 15, false, 150);
    // 15 Pis roughly match the HPC CPU's runtime (Fig 11)...
    assert!(swarm.mean_generation_s() < 1.5 * hpc.mean_generation_s());
    // ...while drawing far less energy.
    assert!(
        swarm.total_energy_j < hpc.total_energy_j / 1.2,
        "swarm {:.0} J vs HPC {:.0} J",
        swarm.total_energy_j,
        hpc.total_energy_j
    );
}

#[test]
fn communication_share_ordering_matches_figure_8() {
    let dcs = run(topo("DCS", 2), 2, true, 150).mean_timeline.shares();
    let dds = run(topo("DDS", 2), 2, true, 150).mean_timeline.shares();
    let dda = run(topo("DDA", 2), 2, true, 150).mean_timeline.shares();
    assert!(dds.communication > dcs.communication);
    assert!(dcs.communication > dda.communication);
}

#[test]
fn small_workloads_cannot_amortize_communication() {
    // Figure 8 / Figure 11's Cartpole story.
    let mut b = ClanDriver::builder(Workload::CartPole)
        .topology(ClanTopology::dcs())
        .agents(2)
        .population_size(150)
        .seed(SEED);
    b = b.single_step();
    let r = b.build().expect("config").run(GENS).expect("run");
    assert!(
        r.mean_timeline.shares().communication > 0.6,
        "single-step Cartpole should be communication-bound: {:?}",
        r.mean_timeline.shares()
    );
}
