//! Synthetic "Atari RAM" machines: the paper's *large* workloads.
//!
//! The CLAN paper evaluates Airraid-ram-v0, Amidar-ram-v0 and Alien-ram-v0
//! — gym environments whose observation is the Atari 2600's 128-byte RAM.
//! Shipping a 2600 emulator is out of scope (and irrelevant: the paper
//! uses these only as *large* workloads whose 128-wide input layer makes
//! genomes, and therefore inference and communication, big). Instead,
//! each game here is a deterministic, seeded state machine with:
//!
//! - a 128-byte RAM observation ([`RAM_BYTES`]), some bytes structured
//!   (positions, lives, score) and the rest filled with state-derived
//!   pseudo-random bytes, mimicking real RAM's mix of legible and opaque
//!   state;
//! - the real action-set sizes (6 / 10 / 18);
//! - incremental scoring and a terminal condition.
//!
//! [`RamMachine`] adapts any [`RamGame`] to the [`Environment`] trait,
//! normalizing RAM bytes to `[0, 1]` floats.

use self::rng::splitmix64;
use crate::{Environment, Step};

/// Width of the Atari RAM observation.
pub const RAM_BYTES: usize = 128;

/// Every byte's observation, `b as f64 / 255.0`, divided at compile time.
const SCALED: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b as f64 / 255.0;
        b += 1;
    }
    table
};

/// Game logic behind a RAM observation.
///
/// Implementations must be deterministic functions of `(seed, actions)`.
pub trait RamGame: Send {
    /// Gym-style environment name.
    fn name(&self) -> &'static str;
    /// Size of the discrete action set.
    fn n_actions(&self) -> usize;
    /// Starts a new game.
    fn reset(&mut self, seed: u64);
    /// Advances one frame; returns `(reward, done)`.
    fn tick(&mut self, action: usize) -> (f64, bool);
    /// Serializes the game state into the RAM image.
    fn write_ram(&self, ram: &mut [u8; RAM_BYTES]);
}

/// Adapter exposing a [`RamGame`] as an [`Environment`] with a
/// 128-float observation (RAM bytes scaled by 1/255).
#[derive(Debug, Clone)]
pub struct RamMachine<G> {
    game: G,
    ram: [u8; RAM_BYTES],
    done: bool,
    started: bool,
}

impl<G: RamGame> RamMachine<G> {
    /// Wraps a game.
    pub fn new(game: G) -> RamMachine<G> {
        RamMachine {
            game,
            ram: [0; RAM_BYTES],
            done: false,
            started: false,
        }
    }

    /// Read-only view of the current RAM image.
    pub fn ram(&self) -> &[u8; RAM_BYTES] {
        &self.ram
    }

    /// The wrapped game.
    pub fn game(&self) -> &G {
        &self.game
    }

    fn obs(&self) -> Vec<f64> {
        self.ram.iter().map(|&b| SCALED[usize::from(b)]).collect()
    }
}

impl<G: RamGame> Environment for RamMachine<G> {
    fn obs_dim(&self) -> usize {
        RAM_BYTES
    }

    fn n_actions(&self) -> usize {
        self.game.n_actions()
    }

    fn reset(&mut self, seed: u64) -> Vec<f64> {
        self.game.reset(seed);
        self.game.write_ram(&mut self.ram);
        self.done = false;
        self.started = true;
        self.obs()
    }

    fn step(&mut self, action: usize) -> Step {
        assert!(self.started, "reset() must be called before step()");
        assert!(!self.done, "step() called on terminated episode");
        assert!(
            action < self.game.n_actions(),
            "{} action {action} out of range",
            self.game.name()
        );
        let (reward, done) = self.game.tick(action);
        self.game.write_ram(&mut self.ram);
        self.done = done;
        Step {
            obs: self.obs(),
            reward,
            done,
        }
    }

    fn name(&self) -> &'static str {
        self.game.name()
    }
}

/// Fills `ram[from..]` with pseudo-random bytes derived from `state_hash`,
/// emulating the opaque scratch bytes of real 2600 RAM. The filler varies
/// with game state but is fully deterministic.
///
/// Byte `i` is byte `i % 8` (little-endian) of a word: `state_hash` itself
/// before the first 8-aligned index, then a fresh mix at each one.
pub(crate) fn fill_opaque(ram: &mut [u8; RAM_BYTES], from: usize, state_hash: u64) {
    let aligned = from.next_multiple_of(8).min(RAM_BYTES);
    let mut h = state_hash;
    if from < aligned {
        ram[from..aligned].copy_from_slice(&h.to_le_bytes()[from % 8..]);
    }
    for (i, word) in (aligned..)
        .step_by(8)
        .zip(ram[aligned..].chunks_exact_mut(8))
    {
        h = splitmix64(h ^ i as u64);
        word.copy_from_slice(&h.to_le_bytes());
    }
}

/// Packs `cells` into `bytes` a byte at a time: cell `k` is bit `k % 8` of
/// byte `k / 8`, and a last, partial byte keeps its bits past the cells.
pub(crate) fn pack_cells(bytes: &mut [u8], cells: &[bool]) {
    for (byte, eight) in bytes.iter_mut().zip(cells.chunks(8)) {
        let bits = eight.iter().rev().fold(0, |acc, &c| acc << 1 | u8::from(c));
        let kept = u8::MAX.checked_shl(eight.len() as u32).unwrap_or(0);
        *byte = *byte & kept | bits;
    }
}

pub(crate) mod rng {
    //! Local copy of the splitmix64 mixer (kept dependency-free).
    pub(crate) fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        frames: u32,
    }

    impl RamGame for Counter {
        fn name(&self) -> &'static str {
            "Counter-ram-v0"
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self, _seed: u64) {
            self.frames = 0;
        }
        fn tick(&mut self, action: usize) -> (f64, bool) {
            self.frames += 1;
            (action as f64, self.frames >= 5)
        }
        fn write_ram(&self, ram: &mut [u8; RAM_BYTES]) {
            ram[0] = self.frames as u8;
            fill_opaque(ram, 1, self.frames as u64);
        }
    }

    #[test]
    fn adapter_normalizes_bytes() {
        let mut m = RamMachine::new(Counter { frames: 0 });
        let obs = m.reset(1);
        assert_eq!(obs.len(), RAM_BYTES);
        assert!(obs.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn adapter_terminates_with_game() {
        let mut m = RamMachine::new(Counter { frames: 0 });
        m.reset(1);
        let mut steps = 0;
        loop {
            let s = m.step(1);
            steps += 1;
            if s.done {
                break;
            }
        }
        assert_eq!(steps, 5);
    }

    #[test]
    fn opaque_fill_changes_with_state() {
        let mut a = [0u8; RAM_BYTES];
        let mut b = [0u8; RAM_BYTES];
        fill_opaque(&mut a, 8, 1);
        fill_opaque(&mut b, 8, 2);
        assert_ne!(a[8..], b[8..]);
        assert_eq!(a[..8], [0; 8]);
    }

    #[test]
    fn table_word_fill_and_packing_match_the_byte_at_a_time_forms() {
        for b in 0..=u8::MAX {
            assert_eq!(
                SCALED[usize::from(b)].to_bits(),
                (b as f64 / 255.0).to_bits()
            );
        }
        for from in 0..=RAM_BYTES {
            for hash in (0..50).map(splitmix64) {
                let mut reference = [0xA5; RAM_BYTES];
                let mut h = hash;
                for (i, byte) in reference.iter_mut().enumerate().skip(from) {
                    if i % 8 == 0 {
                        h = splitmix64(h ^ i as u64);
                    }
                    *byte = (h >> ((i % 8) * 8)) as u8;
                }
                let mut ram = [0xA5; RAM_BYTES];
                fill_opaque(&mut ram, from, hash);
                assert_eq!(ram, reference, "from {from}");
            }
        }
        for cells in [0, 1, 7, 8, 9, 140, 192] {
            let cells: Vec<bool> = (0..cells)
                .map(|k| splitmix64(k).is_multiple_of(3))
                .collect();
            let mut reference = [0xA5; 32];
            for (bit, &on) in cells.iter().enumerate() {
                if on {
                    reference[bit / 8] |= 1 << (bit % 8);
                } else {
                    reference[bit / 8] &= !(1 << (bit % 8));
                }
            }
            let mut bytes = [0xA5; 32];
            pack_cells(&mut bytes, &cells);
            assert_eq!(bytes, reference, "{} cells", cells.len());
        }
    }

    /// Every bit of every observation and reward over `steps` seeded
    /// random-action steps (a new seeded episode after each terminal
    /// one), folded into one digest.
    fn trajectory_digest(mut env: impl Environment, steps: u64) -> u64 {
        let mut digest = 0;
        let mut fold = |bits: u64| digest = splitmix64(digest ^ bits);
        let mut episode = 0;
        let mut obs = env.reset(episode);
        for step in 0..steps {
            obs.iter().for_each(|v| fold(v.to_bits()));
            let action = splitmix64(step) as usize % env.n_actions();
            let step = env.step(action);
            fold(step.reward.to_bits());
            obs = if step.done {
                episode += 1;
                env.reset(episode)
            } else {
                step.obs
            };
        }
        obs.iter().for_each(|v| fold(v.to_bits()));
        digest
    }

    #[test]
    fn observations_match_the_recorded_digests() {
        // Recorded at 50c17fa: a change to any observation bit or reward
        // moves its game's digest.
        use crate::{airraid::AirRaid, alien::AlienGame, amidar::Amidar};
        let digests = [
            trajectory_digest(AlienGame::environment(), 2_000),
            trajectory_digest(AirRaid::environment(), 2_000),
            trajectory_digest(Amidar::environment(), 2_000),
        ];
        assert_eq!(
            digests.map(|d| format!("{d:#018X}")),
            [
                "0x57B327DD59A8FACB",
                "0x6D418CAB80638AD5",
                "0xE0F19F54A5A5947C"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_action_panics() {
        let mut m = RamMachine::new(Counter { frames: 0 });
        m.reset(1);
        m.step(7);
    }
}
