//! CLAN configuration naming: `CLAN_<IRS>` (paper Figure 2).
//!
//! > "Naming scheme of distributed system configurations in CLAN is
//! > `CLAN_<IRS>` for Inference, Reproduction and Speciation respectively
//! > where I, R can be Distributed (D) or Central (C) and S can be
//! > Synchronous (S) or Asynchronous (A)."
//!
//! The paper runs four of those configurations, and only they can be
//! named: [`ClanTopology::serial`], [`dcs`](ClanTopology::dcs),
//! [`dds`](ClanTopology::dds) and [`dda`](ClanTopology::dda). DDA with
//! the paper's future-work periodic global speciation,
//! [`dda_resync`](ClanTopology::dda_resync), is still `CLAN_DDA`.

use std::fmt;
use std::num::NonZeroU64;

/// The paper's four configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Paper {
    /// Everything on the central node.
    Serial,
    /// Distributed inference; central reproduction and speciation.
    Dcs,
    /// Distributed inference and reproduction; central speciation.
    Dds,
    /// Distributed inference and reproduction; asynchronous speciation,
    /// one clan per device of the cluster, optionally pooled and
    /// redistributed every `resync` generations.
    Dda { resync: Option<NonZeroU64> },
}

/// A full CLAN configuration: one of the paper's four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClanTopology(pub(crate) Paper);

impl ClanTopology {
    /// The serial baseline: everything on one node.
    pub fn serial() -> ClanTopology {
        ClanTopology(Paper::Serial)
    }

    /// `CLAN_DCS`: distributed inference, central reproduction,
    /// synchronous speciation.
    pub fn dcs() -> ClanTopology {
        ClanTopology(Paper::Dcs)
    }

    /// `CLAN_DDS`: distributed inference and reproduction, synchronous
    /// speciation.
    pub fn dds() -> ClanTopology {
        ClanTopology(Paper::Dds)
    }

    /// `CLAN_DDA`: distributed inference and reproduction, asynchronous
    /// speciation — one independent clan per device of the cluster.
    pub fn dda() -> ClanTopology {
        ClanTopology(Paper::Dda { resync: None })
    }

    /// `CLAN_DDA` with the paper's future-work periodic global
    /// speciation: every `generations` generations all clans' genomes
    /// are pooled and dealt back round-robin.
    pub fn dda_resync(generations: NonZeroU64) -> ClanTopology {
        ClanTopology(Paper::Dda {
            resync: Some(generations),
        })
    }

    /// The paper's name for this configuration.
    pub fn name(&self) -> String {
        match self.0 {
            Paper::Serial => "Serial",
            Paper::Dcs => "CLAN_DCS",
            Paper::Dds => "CLAN_DDS",
            Paper::Dda { .. } => "CLAN_DDA",
        }
        .to_string()
    }
}

impl fmt::Display for ClanTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(ClanTopology::serial().name(), "Serial");
        assert_eq!(ClanTopology::dcs().name(), "CLAN_DCS");
        assert_eq!(ClanTopology::dds().name(), "CLAN_DDS");
        assert_eq!(ClanTopology::dda().name(), "CLAN_DDA");
        let every_two = NonZeroU64::new(2).unwrap();
        assert_eq!(ClanTopology::dda_resync(every_two).name(), "CLAN_DDA");
    }
}
