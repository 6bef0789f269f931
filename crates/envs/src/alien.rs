//! Alien-ram-v0 surrogate: collect dots in a maze while aliens chase.
//!
//! A 16x12 walled maze seeded deterministically. The player collects dots
//! (+10 each); three aliens chase greedily. The full 18-action Atari set
//! is exposed (8 directions, fire, and fire+direction combos); firing
//! torches an adjacent alien (+50, it respawns at its corner after a
//! delay). Losing all three lives ends the episode.

use crate::atari_ram::{fill_opaque, pack_cells, rng::splitmix64, RamGame, RamMachine, RAM_BYTES};

const COLS: i32 = 16;
const ROWS: i32 = 12;
const N_ALIENS: usize = 3;
const RESPAWN_FRAMES: u32 = 30;
/// Aliens move on even frames only (half player speed).
const ALIEN_PERIOD: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct Alien {
    x: i32,
    y: i32,
    home: (i32, i32),
    respawn_in: u32,
}

/// Game state for the Alien surrogate.
#[derive(Debug, Clone)]
pub struct AlienGame {
    player: (i32, i32),
    walls: [[bool; COLS as usize]; ROWS as usize],
    dots: [[bool; COLS as usize]; ROWS as usize],
    dots_left: u32,
    aliens: [Alien; N_ALIENS],
    lives: u8,
    score: u32,
    frame: u32,
    rng_state: u64,
    done: bool,
}

impl AlienGame {
    /// Creates the game in an unstarted state.
    pub fn new() -> AlienGame {
        AlienGame {
            player: (1, 1),
            walls: [[false; COLS as usize]; ROWS as usize],
            dots: [[false; COLS as usize]; ROWS as usize],
            dots_left: 0,
            aliens: [Alien {
                x: 0,
                y: 0,
                home: (0, 0),
                respawn_in: 0,
            }; N_ALIENS],
            lives: 3,
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
    pub fn environment() -> RamMachine<AlienGame> {
        RamMachine::new(AlienGame::new())
    }

    fn next_u64(&mut self) -> u64 {
        self.rng_state = splitmix64(self.rng_state);
        self.rng_state
    }

    fn build_maze(&mut self) {
        // Border walls plus pillars at even-even interior coordinates,
        // with a few seeded extra wall segments.
        for y in 0..ROWS {
            for x in 0..COLS {
                let border = x == 0 || y == 0 || x == COLS - 1 || y == ROWS - 1;
                let pillar = x % 2 == 0 && y % 2 == 0;
                self.walls[y as usize][x as usize] = border || pillar;
            }
        }
        for _ in 0..6 {
            let r = self.next_u64();
            let x = 1 + (r % (COLS as u64 - 2)) as i32;
            let y = 1 + ((r >> 16) % (ROWS as u64 - 2)) as i32;
            // Never wall the player start or alien corners.
            let reserved = [(1, 1), (COLS - 2, 1), (1, ROWS - 2), (COLS - 2, ROWS - 2)];
            if !reserved.contains(&(x, y)) {
                self.walls[y as usize][x as usize] = true;
            }
        }
        self.dots_left = 0;
        for y in 0..ROWS {
            for x in 0..COLS {
                let open = !self.walls[y as usize][x as usize];
                let is_start = (x, y) == (1, 1);
                self.dots[y as usize][x as usize] = open && !is_start;
                if open && !is_start {
                    self.dots_left += 1;
                }
            }
        }
    }

    fn open(&self, x: i32, y: i32) -> bool {
        (0..COLS).contains(&x) && (0..ROWS).contains(&y) && !self.walls[y as usize][x as usize]
    }

    /// Moves `(x, y)` by `(dx, dy)` with wall sliding: diagonals degrade
    /// to whichever axis is open.
    fn slide(&self, (x, y): (i32, i32), (dx, dy): (i32, i32)) -> (i32, i32) {
        if self.open(x + dx, y + dy) {
            (x + dx, y + dy)
        } else if dx != 0 && self.open(x + dx, y) {
            (x + dx, y)
        } else if dy != 0 && self.open(x, y + dy) {
            (x, y + dy)
        } else {
            (x, y)
        }
    }

    fn state_hash(&self) -> u64 {
        let mut h = splitmix64(
            self.frame as u64 ^ ((self.score as u64) << 16) ^ ((self.lives as u64) << 40),
        );
        h = splitmix64(h ^ (self.player.0 as u64) ^ ((self.player.1 as u64) << 8));
        for a in &self.aliens {
            h = splitmix64(h ^ (a.x as u64) ^ ((a.y as u64) << 8) ^ ((a.respawn_in as u64) << 16));
        }
        h ^ self.dots_left as u64
    }
}

impl Default for AlienGame {
    fn default() -> Self {
        AlienGame::new()
    }
}

/// Direction component of the 18-action Atari set.
///
/// 0 noop, 1 fire, 2 up, 3 right, 4 left, 5 down, 6 up-right, 7 up-left,
/// 8 down-right, 9 down-left, 10-17 = 2-9 with fire.
fn decode_action(action: usize) -> ((i32, i32), bool) {
    let (dir, fire) = match action {
        0 => (0, false),
        1 => (0, true),
        2..=9 => (action - 1, false),
        10..=17 => (action - 9, true),
        _ => unreachable!(),
    };
    let delta = match dir {
        0 => (0, 0),
        1 => (0, -1),
        2 => (1, 0),
        3 => (-1, 0),
        4 => (0, 1),
        5 => (1, -1),
        6 => (-1, -1),
        7 => (1, 1),
        8 => (-1, 1),
        _ => unreachable!(),
    };
    (delta, fire)
}

impl RamGame for AlienGame {
    fn name(&self) -> &'static str {
        "Alien-ram-v0"
    }

    fn n_actions(&self) -> usize {
        18
    }

    fn reset(&mut self, seed: u64) {
        *self = AlienGame::new();
        self.rng_state = splitmix64(seed ^ 0xA11E7);
        self.build_maze();
        let corners = [(COLS - 2, 1), (1, ROWS - 2), (COLS - 2, ROWS - 2)];
        for (i, &home) in corners.iter().enumerate() {
            self.aliens[i] = Alien {
                x: home.0,
                y: home.1,
                home,
                respawn_in: 0,
            };
        }
    }

    fn tick(&mut self, action: usize) -> (f64, bool) {
        debug_assert!(!self.done);
        self.frame += 1;
        let mut reward = 0.0;
        let (delta, fire) = decode_action(action);

        // Flame: torch aliens in the 4-neighborhood.
        if fire {
            for i in 0..N_ALIENS {
                let a = self.aliens[i];
                if a.respawn_in == 0
                    && (a.x - self.player.0).abs() + (a.y - self.player.1).abs() <= 1
                {
                    self.aliens[i].respawn_in = RESPAWN_FRAMES;
                    self.score += 50;
                    reward += 50.0;
                }
            }
        }

        // Player movement + dot collection.
        self.player = self.slide(self.player, delta);
        let (px, py) = self.player;
        if self.dots[py as usize][px as usize] {
            self.dots[py as usize][px as usize] = false;
            self.dots_left -= 1;
            self.score += 10;
            reward += 10.0;
        }
        if self.dots_left == 0 {
            // Cleared board: refill (new deterministic wave).
            self.build_maze();
        }

        // Aliens: respawn countdown, then greedy chase at half speed.
        if self.frame.is_multiple_of(ALIEN_PERIOD) {
            for i in 0..N_ALIENS {
                if self.aliens[i].respawn_in > 0 {
                    continue;
                }
                let a = self.aliens[i];
                let dx = (self.player.0 - a.x).signum();
                let dy = (self.player.1 - a.y).signum();
                let r = self.next_u64();
                let prefer_x = r & 1 == 0;
                let step = if prefer_x { (dx, 0) } else { (0, dy) };
                let alt = if prefer_x { (0, dy) } else { (dx, 0) };
                let next = {
                    let s = self.slide((a.x, a.y), step);
                    if s == (a.x, a.y) {
                        self.slide((a.x, a.y), alt)
                    } else {
                        s
                    }
                };
                self.aliens[i].x = next.0;
                self.aliens[i].y = next.1;
            }
        }
        for i in 0..N_ALIENS {
            if self.aliens[i].respawn_in > 0 {
                self.aliens[i].respawn_in -= 1;
                if self.aliens[i].respawn_in == 0 {
                    let home = self.aliens[i].home;
                    self.aliens[i].x = home.0;
                    self.aliens[i].y = home.1;
                }
            }
        }

        // Capture check.
        if self
            .aliens
            .iter()
            .any(|a| a.respawn_in == 0 && (a.x, a.y) == self.player)
        {
            self.lives = self.lives.saturating_sub(1);
            self.player = (1, 1);
            for i in 0..N_ALIENS {
                let home = self.aliens[i].home;
                self.aliens[i].x = home.0;
                self.aliens[i].y = home.1;
            }
            if self.lives == 0 {
                self.done = true;
            }
        }

        (reward, self.done)
    }

    fn write_ram(&self, ram: &mut [u8; RAM_BYTES]) {
        ram[0] = self.player.0 as u8;
        ram[1] = self.player.1 as u8;
        ram[2] = self.lives;
        ram[3] = (self.score & 0xFF) as u8;
        ram[4] = (self.score >> 8) as u8;
        ram[5] = self.dots_left as u8;
        let mut idx = 6;
        for a in &self.aliens {
            ram[idx] = a.x as u8;
            ram[idx + 1] = a.y as u8;
            ram[idx + 2] = a.respawn_in as u8;
            idx += 3;
        }
        // Dot bitmap: 192 cells -> 24 bytes.
        pack_cells(&mut ram[idx..], self.dots.as_flattened());
        idx += (COLS * ROWS) as usize / 8;
        fill_opaque(ram, idx, self.state_hash());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;

    #[test]
    fn environment_shape() {
        let mut env = AlienGame::environment();
        let obs = env.reset(1);
        assert_eq!(obs.len(), RAM_BYTES);
        assert_eq!(env.n_actions(), 18);
        assert_eq!(env.name(), "Alien-ram-v0");
    }

    #[test]
    fn collecting_dots_scores() {
        let mut env = AlienGame::environment();
        env.reset(2);
        let mut total = 0.0;
        for t in 0..30 {
            // Sweep right then down, collecting along the way.
            let s = env.step(if t % 3 == 2 { 5 } else { 3 });
            total += s.reward;
            if s.done {
                break;
            }
        }
        assert!(total >= 10.0, "dot sweep should score, got {total}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = AlienGame::environment();
        let mut b = AlienGame::environment();
        assert_eq!(a.reset(3), b.reset(3));
        for t in 0..120 {
            let (sa, sb) = (a.step(t % 18), b.step(t % 18));
            assert_eq!(sa, sb);
            if sa.done {
                break;
            }
        }
    }

    #[test]
    fn idle_player_gets_caught() {
        let mut env = AlienGame::environment();
        env.reset(4);
        let mut done = false;
        for _ in 0..3000 {
            if env.step(0).done {
                done = true;
                break;
            }
        }
        assert!(done, "chasing aliens must catch an idle player");
    }

    #[test]
    fn player_cannot_walk_through_walls() {
        let mut env = AlienGame::environment();
        env.reset(5);
        // Walk up into the border repeatedly: y must stay >= 1.
        for _ in 0..20 {
            env.step(2);
        }
        assert!(env.ram()[1] >= 1);
        // Walk left into the border: x must stay >= 1.
        for _ in 0..20 {
            env.step(4);
        }
        assert!(env.ram()[0] >= 1);
    }

    #[test]
    fn torching_adjacent_alien_scores_fifty() {
        // Engineered scenario: wait for an alien to come adjacent, then
        // fire every frame; at some point the +50 must land.
        let mut env = AlienGame::environment();
        env.reset(6);
        let mut got_torch = false;
        for _ in 0..600 {
            let s = env.step(1); // stand and fire
            if s.reward >= 50.0 {
                got_torch = true;
                break;
            }
            if s.done {
                break;
            }
        }
        assert!(got_torch, "a chasing alien should get torched");
    }
}
