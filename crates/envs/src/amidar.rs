//! Amidar-ram-v0 surrogate: paint a lattice while dodging patrollers.
//!
//! The player walks a 14x10 lattice, earning +1 for every newly painted
//! cell (+10 for completing a row). Four enemies patrol rows and bounce
//! off the edges; contact costs a life (3 total). "Fire" variants of the
//! movement actions spend one of three per-life freezes that stop the
//! patrollers for a few frames — a stand-in for Amidar's jump button.
//! Action set size 10, matching the real Amidar-ram-v0.
//!
//! The paper notes Amidar "performs equivalently to Airraid" and omits it
//! from most figures; it is included here for suite completeness.

use crate::atari_ram::{fill_opaque, pack_cells, rng::splitmix64, RamGame, RamMachine, RAM_BYTES};

const COLS: i32 = 14;
const ROWS: i32 = 10;
const N_ENEMIES: usize = 4;
const FREEZE_FRAMES: u32 = 10;
const FREEZES_PER_LIFE: u8 = 3;

#[derive(Debug, Clone, Copy)]
struct Patroller {
    x: i32,
    y: i32,
    dir: i32,
}

/// Game state for the Amidar surrogate.
#[derive(Debug, Clone)]
pub struct Amidar {
    player: (i32, i32),
    painted: [[bool; COLS as usize]; ROWS as usize],
    painted_count: u32,
    enemies: [Patroller; N_ENEMIES],
    lives: u8,
    freezes_left: u8,
    freeze_timer: u32,
    score: u32,
    frame: u32,
    rng_state: u64,
    done: bool,
}

impl Amidar {
    /// Creates the game in an unstarted state.
    pub fn new() -> Amidar {
        Amidar {
            player: (0, 0),
            painted: [[false; COLS as usize]; ROWS as usize],
            painted_count: 0,
            enemies: [Patroller { x: 0, y: 0, dir: 1 }; N_ENEMIES],
            lives: 3,
            freezes_left: FREEZES_PER_LIFE,
            freeze_timer: 0,
            score: 0,
            frame: 0,
            rng_state: 0,
            done: false,
        }
    }

    /// Current score.
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Wraps the game in a [`RamMachine`] environment.
    pub fn environment() -> RamMachine<Amidar> {
        RamMachine::new(Amidar::new())
    }

    fn next_u64(&mut self) -> u64 {
        self.rng_state = splitmix64(self.rng_state);
        self.rng_state
    }

    fn place_enemies(&mut self) {
        for i in 0..N_ENEMIES {
            let r = self.next_u64();
            self.enemies[i] = Patroller {
                x: (r % COLS as u64) as i32,
                // Spread patrollers over distinct rows, away from (0, 0).
                y: (2 + (i as i32 * 2)) % ROWS,
                dir: if r & 0x100 == 0 { 1 } else { -1 },
            };
        }
    }

    fn paint(&mut self) -> f64 {
        let (x, y) = self.player;
        let cell = &mut self.painted[y as usize][x as usize];
        if *cell {
            return 0.0;
        }
        *cell = true;
        self.painted_count += 1;
        self.score += 1;
        let mut reward = 1.0;
        if self.painted[y as usize].iter().all(|&p| p) {
            self.score += 10;
            reward += 10.0;
        }
        reward
    }

    fn state_hash(&self) -> u64 {
        let mut h = splitmix64(
            self.frame as u64 ^ ((self.score as u64) << 16) ^ ((self.lives as u64) << 48),
        );
        h = splitmix64(h ^ (self.player.0 as u64) ^ ((self.player.1 as u64) << 8));
        for e in &self.enemies {
            h = splitmix64(h ^ (e.x as u64) ^ ((e.y as u64) << 8));
        }
        h ^ self.painted_count as u64
    }
}

impl Default for Amidar {
    fn default() -> Self {
        Amidar::new()
    }
}

impl RamGame for Amidar {
    fn name(&self) -> &'static str {
        "Amidar-ram-v0"
    }

    fn n_actions(&self) -> usize {
        10
    }

    fn reset(&mut self, seed: u64) {
        *self = Amidar::new();
        self.rng_state = splitmix64(seed ^ 0xA111DA);
        self.place_enemies();
    }

    fn tick(&mut self, action: usize) -> (f64, bool) {
        debug_assert!(!self.done);
        self.frame += 1;
        let mut reward = 0.0;

        // Actions: 0 noop, 1 up, 2 right, 3 left, 4 down, 5-8 move+freeze,
        // 9 freeze in place.
        let (dx, dy, freeze) = match action {
            0 => (0, 0, false),
            1 => (0, -1, false),
            2 => (1, 0, false),
            3 => (-1, 0, false),
            4 => (0, 1, false),
            5 => (0, -1, true),
            6 => (1, 0, true),
            7 => (-1, 0, true),
            8 => (0, 1, true),
            9 => (0, 0, true),
            _ => unreachable!(),
        };
        if freeze && self.freezes_left > 0 && self.freeze_timer == 0 {
            self.freezes_left -= 1;
            self.freeze_timer = FREEZE_FRAMES;
        }
        self.player.0 = (self.player.0 + dx).clamp(0, COLS - 1);
        self.player.1 = (self.player.1 + dy).clamp(0, ROWS - 1);
        reward += self.paint();

        // Patrollers bounce along their rows unless frozen.
        if self.freeze_timer > 0 {
            self.freeze_timer -= 1;
        } else {
            for i in 0..N_ENEMIES {
                let e = &mut self.enemies[i];
                e.x += e.dir;
                if e.x <= 0 || e.x >= COLS - 1 {
                    e.x = e.x.clamp(0, COLS - 1);
                    e.dir = -e.dir;
                }
            }
            // Occasionally a patroller hops one row toward the player.
            let r = self.next_u64();
            if r.is_multiple_of(13) {
                let i = (r >> 8) as usize % N_ENEMIES;
                let dy = (self.player.1 - self.enemies[i].y).signum();
                self.enemies[i].y = (self.enemies[i].y + dy).clamp(0, ROWS - 1);
            }
        }

        // Contact: lose a life, respawn at the origin corner.
        if self.enemies.iter().any(|e| (e.x, e.y) == self.player) {
            self.lives = self.lives.saturating_sub(1);
            self.player = (0, 0);
            self.freezes_left = FREEZES_PER_LIFE;
            self.freeze_timer = 0;
            if self.lives == 0 {
                self.done = true;
            }
        }

        // Board fully painted: fresh board, keep score rolling.
        if self.painted_count as i32 == COLS * ROWS {
            self.painted = [[false; COLS as usize]; ROWS as usize];
            self.painted_count = 0;
        }

        (reward, self.done)
    }

    fn write_ram(&self, ram: &mut [u8; RAM_BYTES]) {
        ram[0] = self.player.0 as u8;
        ram[1] = self.player.1 as u8;
        ram[2] = self.lives;
        ram[3] = (self.score & 0xFF) as u8;
        ram[4] = (self.score >> 8) as u8;
        ram[5] = self.freezes_left;
        ram[6] = self.freeze_timer as u8;
        let mut idx = 7;
        for e in &self.enemies {
            ram[idx] = e.x as u8;
            ram[idx + 1] = e.y as u8;
            ram[idx + 2] = (e.dir + 1) as u8;
            idx += 3;
        }
        // Painted bitmap: 140 cells -> 18 bytes.
        pack_cells(&mut ram[idx..], self.painted.as_flattened());
        idx += (COLS * ROWS) as usize / 8 + 1;
        fill_opaque(ram, idx, self.state_hash());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;

    #[test]
    fn environment_shape() {
        let mut env = Amidar::environment();
        let obs = env.reset(1);
        assert_eq!(obs.len(), RAM_BYTES);
        assert_eq!(env.n_actions(), 10);
    }

    #[test]
    fn painting_scores() {
        let mut env = Amidar::environment();
        env.reset(2);
        let mut total = 0.0;
        // Walk right along the top row.
        for _ in 0..10 {
            let s = env.step(2);
            total += s.reward;
            if s.done {
                break;
            }
        }
        assert!(total >= 5.0, "walking fresh cells must score, got {total}");
    }

    #[test]
    fn repainting_does_not_score() {
        let mut env = Amidar::environment();
        env.reset(3);
        env.step(2);
        env.step(3); // back to painted origin cell
        let s = env.step(2); // back to painted cell again
        assert_eq!(s.reward, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Amidar::environment();
        let mut b = Amidar::environment();
        assert_eq!(a.reset(4), b.reset(4));
        for t in 0..100 {
            assert_eq!(a.step(t % 10), b.step(t % 10));
        }
    }

    #[test]
    fn eventually_caught_when_idle_mid_board() {
        let mut env = Amidar::environment();
        env.reset(5);
        // Move to the middle and stand still: patrollers must catch us.
        for _ in 0..5 {
            env.step(4);
        }
        for _ in 0..4 {
            env.step(2);
        }
        let mut done = false;
        for _ in 0..5000 {
            if env.step(0).done {
                done = true;
                break;
            }
        }
        assert!(done, "idle player should eventually lose all lives");
    }

    #[test]
    fn row_completion_bonus() {
        let mut env = Amidar::environment();
        env.reset(6);
        let mut total = 0.0;
        total += env.step(0).reward; // paint the origin cell
        for _ in 0..(COLS - 1) {
            let s = env.step(2);
            total += s.reward;
            if s.done {
                break;
            }
        }
        // 14 cells + 10 row bonus = 24 (enemies patrol rows >= 2, so the
        // top row walk is safe).
        assert_eq!(total, 24.0, "row bonus should apply");
    }
}
