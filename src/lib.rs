//! # CLAN — Continuous Learning using Asynchronous Neuroevolution
//!
//! Facade crate re-exporting the full CLAN reproduction (Mannan, Samajdar,
//! Krishna — ISPASS 2020): a closed-loop collaborative learning system in
//! which a swarm of commodity edge devices (Raspberry Pis over WiFi)
//! evolves NEAT networks with distributed inference, distributed
//! reproduction, and asynchronous speciation.
//!
//! The workspace is organized bottom-up:
//!
//! - [`neat`] — the NEAT algorithm itself, with gene-level cost accounting
//! - [`envs`] — a gym-like RL environment suite (CartPole, MountainCar,
//!   LunarLander, synthetic Atari-RAM machines)
//! - [`hw`] — hardware platform models (Raspberry Pi, Jetson TX2, HPC,
//!   systolic-array accelerator)
//! - [`netsim`] — the WiFi cost model and communication ledger
//! - [`distsim`] — the per-generation cluster timeline simulator
//! - [`core`] — the CLAN orchestrators (Serial / DCS / DDS / DDA), the
//!   continuous-learning loop, and a real networked edge runtime
//!   (threads, loopback TCP, or remote `clan-cli agent` devices)
//!
//! ## Quickstart
//!
//! ```
//! use clan::core::{ClanDriver, ClanTopology};
//! use clan::envs::Workload;
//!
//! let driver = ClanDriver::builder(Workload::CartPole)
//!     .topology(ClanTopology::dda())
//!     .agents(4)
//!     .population_size(32)
//!     .seed(7)
//!     .build()?;
//! let report = driver.run(3)?;
//! assert_eq!(report.generations.len(), 3);
//! # Ok::<(), clan::core::ClanError>(())
//! ```

pub use clan_core as core;
pub use clan_distsim as distsim;
pub use clan_envs as envs;
pub use clan_hw as hw;
pub use clan_neat as neat;
pub use clan_netsim as netsim;
