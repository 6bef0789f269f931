//! Airraid-ram-v0 surrogate: defend buildings from descending ships.
//!
//! A fixed-gun shooter on a 32x16 grid. Waves of enemy ships descend;
//! the player slides along the bottom row and fires bullets upward.
//! Hitting a ship scores +25; a ship reaching the bottom destroys a
//! building (3 buildings = 3 "lives"). Action set size 6, matching the
//! real Airraid: noop, fire, right, left, right+fire, left+fire.

use crate::atari_ram::{fill_opaque, rng::splitmix64, RamGame, RamMachine, RAM_BYTES};

const GRID_W: i32 = 32;
const GRID_H: i32 = 16;
const MAX_SHIPS: usize = 8;
const MAX_BULLETS: usize = 4;
/// Frames between ship descents in the first wave.
const BASE_DESCENT_PERIOD: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ship {
    x: i32,
    y: i32,
    alive: bool,
}

/// Game state for the AirRaid surrogate.
#[derive(Debug, Clone)]
pub struct AirRaid {
    player_x: i32,
    ships: [Ship; MAX_SHIPS],
    bullets: [(i32, i32); MAX_BULLETS],
    bullet_live: [bool; MAX_BULLETS],
    buildings: u8,
    score: u32,
    wave: u32,
    frame: u32,
    rng_state: u64,
    fire_cooldown: u32,
    done: bool,
}

impl AirRaid {
    /// Creates the game in an unstarted state.
    pub fn new() -> AirRaid {
        AirRaid {
            player_x: GRID_W / 2,
            ships: [Ship {
                x: 0,
                y: 0,
                alive: false,
            }; MAX_SHIPS],
            bullets: [(0, 0); MAX_BULLETS],
            bullet_live: [false; MAX_BULLETS],
            buildings: 3,
            score: 0,
            wave: 0,
            frame: 0,
            rng_state: 0,
            fire_cooldown: 0,
            done: false,
        }
    }

    /// Current score.
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Wraps the game in a [`RamMachine`] environment.
    pub fn environment() -> RamMachine<AirRaid> {
        RamMachine::new(AirRaid::new())
    }

    fn next_u64(&mut self) -> u64 {
        self.rng_state = splitmix64(self.rng_state);
        self.rng_state
    }

    fn spawn_wave(&mut self) {
        self.wave += 1;
        for i in 0..MAX_SHIPS {
            let r = self.next_u64();
            self.ships[i] = Ship {
                x: (r % GRID_W as u64) as i32,
                y: ((r >> 8) % 4) as i32, // staggered near the top
                alive: true,
            };
        }
    }

    fn descent_period(&self) -> u32 {
        BASE_DESCENT_PERIOD.saturating_sub(self.wave.min(6)).max(2)
    }

    fn state_hash(&self) -> u64 {
        let mut h = splitmix64(self.frame as u64 ^ ((self.score as u64) << 20));
        h ^= splitmix64(self.player_x as u64 ^ ((self.buildings as u64) << 32));
        for s in &self.ships {
            h = splitmix64(h ^ (s.x as u64) ^ ((s.y as u64) << 8) ^ ((s.alive as u64) << 16));
        }
        h
    }
}

impl Default for AirRaid {
    fn default() -> Self {
        AirRaid::new()
    }
}

impl RamGame for AirRaid {
    fn name(&self) -> &'static str {
        "Airraid-ram-v0"
    }

    fn n_actions(&self) -> usize {
        6
    }

    fn reset(&mut self, seed: u64) {
        *self = AirRaid::new();
        self.rng_state = splitmix64(seed ^ 0xA1A1);
        self.spawn_wave();
    }

    fn tick(&mut self, action: usize) -> (f64, bool) {
        debug_assert!(!self.done);
        self.frame += 1;
        let mut reward = 0.0;

        // Player movement and firing: noop, fire, right, left, r+f, l+f.
        let (dx, fire) = match action {
            0 => (0, false),
            1 => (0, true),
            2 => (1, false),
            3 => (-1, false),
            4 => (1, true),
            5 => (-1, true),
            _ => unreachable!(),
        };
        self.player_x = (self.player_x + dx).clamp(0, GRID_W - 1);
        if self.fire_cooldown > 0 {
            self.fire_cooldown -= 1;
        }
        if fire && self.fire_cooldown == 0 {
            if let Some(slot) = self.bullet_live.iter().position(|&l| !l) {
                self.bullets[slot] = (self.player_x, GRID_H - 2);
                self.bullet_live[slot] = true;
                self.fire_cooldown = 2;
            }
        }

        // Bullets rise two cells per frame.
        for i in 0..MAX_BULLETS {
            if self.bullet_live[i] {
                self.bullets[i].1 -= 2;
                if self.bullets[i].1 < 0 {
                    self.bullet_live[i] = false;
                }
            }
        }

        // Ships drift and periodically descend.
        let descend = self.frame.is_multiple_of(self.descent_period());
        for i in 0..MAX_SHIPS {
            if !self.ships[i].alive {
                continue;
            }
            let r = self.next_u64();
            let drift = (r % 3) as i32 - 1;
            self.ships[i].x = (self.ships[i].x + drift).rem_euclid(GRID_W);
            if descend {
                self.ships[i].y += 1;
            }
        }

        // Bullet-ship collisions (same cell or bullet passed through).
        for b in 0..MAX_BULLETS {
            if !self.bullet_live[b] {
                continue;
            }
            let (bx, by) = self.bullets[b];
            for s in 0..MAX_SHIPS {
                let ship = self.ships[s];
                if ship.alive && ship.x == bx && (ship.y == by || ship.y == by + 1) {
                    self.ships[s].alive = false;
                    self.bullet_live[b] = false;
                    self.score += 25;
                    reward += 25.0;
                    break;
                }
            }
        }

        // Ships reaching the bottom destroy a building.
        for s in 0..MAX_SHIPS {
            if self.ships[s].alive && self.ships[s].y >= GRID_H - 1 {
                self.ships[s].alive = false;
                self.buildings = self.buildings.saturating_sub(1);
            }
        }
        if self.buildings == 0 {
            self.done = true;
        }

        // Next wave once cleared.
        if !self.done && self.ships.iter().all(|s| !s.alive) {
            self.spawn_wave();
        }

        (reward, self.done)
    }

    fn write_ram(&self, ram: &mut [u8; RAM_BYTES]) {
        ram[0] = self.player_x as u8;
        ram[1] = self.buildings;
        ram[2] = (self.score & 0xFF) as u8;
        ram[3] = (self.score >> 8) as u8;
        ram[4] = self.wave as u8;
        ram[5] = (self.frame & 0xFF) as u8;
        let mut idx = 6;
        for s in &self.ships {
            ram[idx] = s.x as u8;
            ram[idx + 1] = s.y.clamp(0, 255) as u8;
            ram[idx + 2] = s.alive as u8;
            idx += 3;
        }
        for (i, &(bx, by)) in self.bullets.iter().enumerate() {
            ram[idx] = if self.bullet_live[i] { bx as u8 } else { 255 };
            ram[idx + 1] = if self.bullet_live[i] {
                by.clamp(0, 255) as u8
            } else {
                255
            };
            idx += 2;
        }
        fill_opaque(ram, idx, self.state_hash());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;

    #[test]
    fn environment_shape() {
        let mut env = AirRaid::environment();
        let obs = env.reset(1);
        assert_eq!(obs.len(), RAM_BYTES);
        assert_eq!(env.n_actions(), 6);
        assert_eq!(env.name(), "Airraid-ram-v0");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = AirRaid::environment();
        let mut b = AirRaid::environment();
        assert_eq!(a.reset(7), b.reset(7));
        for t in 0..100 {
            let action = (t % 6) as usize;
            let (sa, sb) = (a.step(action), b.step(action));
            assert_eq!(sa, sb);
            if sa.done {
                break;
            }
        }
    }

    #[test]
    fn firing_scores_eventually() {
        // A scripted spray policy should hit at least one ship in 200 frames.
        let mut env = AirRaid::environment();
        env.reset(2);
        let mut total = 0.0;
        for t in 0..200 {
            let action = match t % 4 {
                0 => 4, // right + fire
                1 => 1, // fire
                2 => 5, // left + fire
                _ => 1,
            };
            let s = env.step(action);
            total += s.reward;
            if s.done {
                break;
            }
        }
        assert!(total > 0.0, "spray policy should score, got {total}");
    }

    #[test]
    fn idle_player_loses_buildings() {
        let mut env = AirRaid::environment();
        env.reset(3);
        let mut done = false;
        for _ in 0..2000 {
            if env.step(0).done {
                done = true;
                break;
            }
        }
        assert!(done, "unopposed ships must destroy all buildings");
    }

    #[test]
    fn score_monotonic_nonnegative_rewards() {
        let mut env = AirRaid::environment();
        env.reset(4);
        for t in 0..150 {
            let s = env.step(if t % 2 == 0 { 1 } else { 2 });
            assert!(s.reward >= 0.0);
            if s.done {
                break;
            }
        }
    }

    #[test]
    fn ram_reflects_player_motion() {
        let mut env = AirRaid::environment();
        env.reset(5);
        let x0 = env.ram()[0];
        for _ in 0..3 {
            env.step(2); // right
        }
        assert!(env.ram()[0] > x0 || x0 as i32 >= GRID_W - 1);
    }
}
