//! Out-of-band probes: each times one layer's public entry point in
//! isolation, on the genomes the traced pass is evolving, while the
//! cluster is idle. They give the per-layer costs that a driver run only
//! shows summed.

use crate::workloads::{Inputs, WorkloadDef};
use clan_core::transport::{
    decode, encode, FaultyTransport, TcpTransport, Transport, UdpConfig, UdpLink, UdpTransport,
    WireMessage,
};
use clan_core::{ClanError, Evaluator};
use clan_neat::{
    BatchedNetwork, FeedForwardNetwork, Genome, NeatConfig, Population, Scratch, ShapeKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, UdpSocket};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Each kernel probe loops until it has measured this long.
const KERNEL_PROBE: Duration = Duration::from_millis(40);
/// A one-byte frame tells the UDP echo peer to stop.
const STOP_FRAME: [u8; 1] = [0];

fn transport_err(what: &str, e: std::io::Error) -> ClanError {
    ClanError::Transport {
        peer: "echo".into(),
        reason: format!("{what}: {e}"),
    }
}

/// A standalone transport pair whose far end sends every frame straight
/// back: the transport layer with no codec, evaluator or runtime on it.
pub struct Echo {
    client: Box<dyn Transport>,
    server: Option<JoinHandle<()>>,
    /// Payload bytes per datagram; `None` on a stream transport.
    mtu: Option<usize>,
}

fn serve_echo(mut transport: impl Transport) {
    // Ends on the stop frame, or on the typed error a vanished client
    // surfaces as (disconnect on TCP, idle timeout on UDP).
    while let Ok(frame) = transport.recv_frame() {
        if frame == STOP_FRAME || transport.send_frame(&frame).is_err() {
            break;
        }
    }
}

impl Echo {
    /// The echo pair over the workload's transport, with its tuning and
    /// seeded faults.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn for_workload(def: &WorkloadDef, inputs: &Inputs) -> Result<Echo, ClanError> {
        match def.udp_config(inputs) {
            None => Echo::tcp(),
            Some(udp) => Echo::udp(&udp),
        }
    }

    fn tcp() -> Result<Echo, ClanError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| transport_err("bind", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| transport_err("local addr", e))?;
        // Connect first: the pending connection waits in the backlog, so
        // a connect failure leaves no thread parked in accept().
        let client = TcpTransport::connect(addr)?;
        let server = std::thread::spawn(move || {
            if let Ok((stream, peer)) = listener.accept() {
                serve_echo(TcpTransport::from_stream(stream, peer.to_string()));
            }
        });
        Ok(Echo {
            client: Box::new(client),
            server: Some(server),
            mtu: None,
        })
    }

    fn udp(cfg: &UdpConfig) -> Result<Echo, ClanError> {
        let bind = || UdpSocket::bind("127.0.0.1:0").map_err(|e| transport_err("udp bind", e));
        let (near, far) = (bind()?, bind()?);
        let addr = |s: &UdpSocket| s.local_addr().map_err(|e| transport_err("udp addr", e));
        let (near_addr, far_addr) = (addr(&near)?, addr(&far)?);
        near.connect(far_addr)
            .and_then(|()| far.connect(near_addr))
            .map_err(|e| transport_err("udp connect", e))?;
        // As in a cluster: faults on the coordinator side of the link
        // (both directions), the far end clean; a short idle deadline so
        // a failed probe cannot hold the process for the default 30 s.
        let far_cfg = UdpConfig {
            faults: None,
            ..cfg.clone()
        }
        .with_idle_timeout_s(5.0);
        let far_link = UdpLink::from_socket(far, near_addr.to_string());
        let server = std::thread::spawn(move || {
            serve_echo(UdpTransport::with_config(far_link, &far_cfg));
        });
        let near_link = UdpLink::from_socket(near, far_addr.to_string());
        let client: Box<dyn Transport> = match &cfg.faults {
            Some(f) => Box::new(UdpTransport::with_config(
                FaultyTransport::new(near_link, f.for_link(0)),
                cfg,
            )),
            None => Box::new(UdpTransport::with_config(near_link, cfg)),
        };
        Ok(Echo {
            client,
            server: Some(server),
            mtu: Some(cfg.mtu),
        })
    }

    /// Sends `frame`, waits for it to come back, and returns the round
    /// trip in seconds.
    ///
    /// # Errors
    ///
    /// Transport failures, or a protocol error if the echo differs.
    pub fn round_trip(&mut self, frame: &[u8]) -> Result<f64, ClanError> {
        let t = Instant::now();
        self.client.send_frame(frame)?;
        let back = self.client.recv_frame()?;
        let elapsed = t.elapsed().as_secs_f64();
        if back != frame {
            return Err(ClanError::Protocol {
                peer: self.client.peer(),
                reason: "echoed frame differs from the frame sent".into(),
            });
        }
        Ok(elapsed)
    }

    /// Datagrams a frame of `len` bytes is cut into (1 on a stream).
    pub fn datagrams_per_frame(&self, len: usize) -> usize {
        self.mtu.map_or(1, |mtu| len.div_ceil(mtu).max(1))
    }

    /// Stops the far end and waits for its thread.
    pub fn close(mut self) {
        // The UDP peer cannot see a disconnect, so it is told to stop;
        // the TCP peer ends when the client socket closes below.
        if self.mtu.is_some() && self.client.send_frame(&STOP_FRAME).is_ok() {
            let _ = self.client.drain(Duration::from_millis(500));
        }
        drop(self.client);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// One codec round trip of an `Evaluate` message.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecSample {
    /// Wall of `codec::encode`, seconds.
    pub encode_s: f64,
    /// Wall of `codec::decode`, seconds.
    pub decode_s: f64,
    /// The encoded frame (also the echo probe's generation-sized frame).
    pub frame: Vec<u8>,
    /// The message's size in the paper's unit (4-byte floats/genes).
    pub modeled_floats: u64,
    /// Whether the decoded message equalled the one encoded.
    pub round_trips: bool,
}

impl CodecSample {
    /// Encoded bytes over the paper's model of 4 bytes per gene.
    pub fn framing_overhead(&self) -> f64 {
        self.frame.len() as f64 / (4.0 * self.modeled_floats.max(1) as f64)
    }
}

/// Encodes and decodes the `Evaluate` message that would carry
/// `genomes` to one agent.
pub fn codec(genomes: &[Genome], generation: u64, master_seed: u64) -> CodecSample {
    let msg = WireMessage::Evaluate {
        generation,
        master_seed,
        genomes: genomes.to_vec(),
    };
    let t = Instant::now();
    let frame = black_box(encode(black_box(&msg)));
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = black_box(decode(black_box(&frame)));
    let decode_s = t.elapsed().as_secs_f64();
    CodecSample {
        encode_s,
        decode_s,
        modeled_floats: msg.modeled_floats(),
        round_trips: decoded.as_ref() == Ok(&msg),
        frame,
    }
}

/// Wall of compiling every genome once, seconds.
pub fn compile(genomes: &[Genome], cfg: &NeatConfig) -> f64 {
    let t = Instant::now();
    for g in genomes {
        black_box(FeedForwardNetwork::compile(black_box(g), cfg));
    }
    t.elapsed().as_secs_f64()
}

/// Wall of a local `evaluate_genomes` over `genomes`, seconds, and the
/// network activations it ran: an agent's service without the wire.
pub fn evaluate(
    evaluator: &mut Evaluator,
    genomes: &[Genome],
    cfg: &NeatConfig,
    master_seed: u64,
    generation: u64,
) -> (f64, u64) {
    let t = Instant::now();
    let results = black_box(evaluator.evaluate_genomes(genomes, cfg, master_seed, generation));
    let elapsed = t.elapsed().as_secs_f64();
    (elapsed, results.iter().map(|r| r.1.activations).sum())
}

/// The once-per-workload kernel readings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Kernels {
    /// `FeedForwardNetwork::activate_into`, ns per call, averaged over
    /// the population's networks.
    pub activate_ns: f64,
    /// Mean `genes_per_activation` of those networks.
    pub genes_per_activation: f64,
    /// `BatchedNetwork::activate`, ns per live lane, on the population's
    /// largest same-shape group (at most `lanes` lanes).
    pub batch_ns_per_lane: f64,
    /// Environment `step`, ns per call (episode resets amortised in).
    pub env_step_ns: f64,
}

/// Times `body` repeatedly for [`KERNEL_PROBE`] and returns seconds per
/// unit, where each call of `body` does `units` units of work.
fn per_unit_s(units: usize, mut body: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < KERNEL_PROBE {
        body();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / (calls as f64 * units.max(1) as f64)
}

/// Runs the kernel probes on `pop`'s genomes with inputs drawn from
/// `probe_seed`.
pub fn kernels(def: &WorkloadDef, pop: &Population, lanes: usize, probe_seed: u64) -> Kernels {
    let cfg = pop.config();
    let mut rng = StdRng::seed_from_u64(probe_seed);
    let observations: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..def.env.obs_dim()).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let nets: Vec<FeedForwardNetwork> = pop
        .genomes()
        .values()
        .map(|g| FeedForwardNetwork::compile(g, cfg))
        .collect();

    let mut scratch = Scratch::new();
    let mut round = 0usize;
    let activate_s = per_unit_s(nets.len(), || {
        for (i, net) in nets.iter().enumerate() {
            let obs = &observations[(round + i) % observations.len()];
            black_box(net.activate_into(black_box(obs), &mut scratch));
        }
        round += 1;
    });

    let mut groups: BTreeMap<ShapeKey, Vec<usize>> = BTreeMap::new();
    for (i, net) in nets.iter().enumerate() {
        groups.entry(ShapeKey::of(net)).or_default().push(i);
    }
    // Largest group; ties go to the lowest first index for a stable pick.
    let group = groups
        .into_values()
        .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].cmp(&a[0])))
        .expect("population is never empty");
    let live = group.len().min(lanes.max(1));
    let mut bank = BatchedNetwork::from_template(&nets[group[0]], live);
    for (lane, &i) in group.iter().take(live).enumerate() {
        bank.load_lane(lane, &nets[i]);
    }
    let mut round = 0usize;
    let batch_s = per_unit_s(live, || {
        for lane in 0..live {
            bank.set_input(lane, &observations[(round + lane) % observations.len()]);
        }
        bank.activate();
        black_box(bank.output(0, 0));
        round += 1;
    });

    let mut env = def.env.make();
    let n_actions = def.env.n_actions();
    let mut episode = probe_seed;
    black_box(env.reset(episode));
    const STEPS: usize = 256;
    let step_s = per_unit_s(STEPS, || {
        for _ in 0..STEPS {
            if black_box(env.step(rng.gen_range(0..n_actions))).done {
                episode = episode.wrapping_add(1);
                black_box(env.reset(episode));
            }
        }
    });

    Kernels {
        activate_ns: activate_s * 1e9,
        genes_per_activation: nets
            .iter()
            .map(|n| n.genes_per_activation() as f64)
            .sum::<f64>()
            / nets.len() as f64,
        batch_ns_per_lane: batch_s * 1e9,
        env_step_ns: step_s * 1e9,
    }
}

/// Gives every member of `pop` that lacks a fitness the one a local
/// `evaluator` measures, so the population can be selected from.
pub fn fill_fitness(pop: &mut Population, evaluator: &mut Evaluator) {
    let pending: Vec<Genome> = pop
        .genomes()
        .values()
        .filter(|g| g.fitness().is_none())
        .cloned()
        .collect();
    let results =
        evaluator.evaluate_genomes(&pending, pop.config(), pop.master_seed(), pop.generation());
    for (genome, evaluation, _) in results {
        pop.set_fitness(genome, evaluation.fitness)
            .expect("the genome was just read from this population");
    }
}

/// Walls of one central evolution step, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Evolution {
    /// `Population::speciate`.
    pub speciate_s: f64,
    /// `Population::plan_generation`.
    pub plan_s: f64,
    /// `Population::reproduce_centrally`.
    pub reproduce_s: f64,
    /// `Population::install_next_generation`.
    pub install_s: f64,
}

/// Times one central evolution step on a copy of the fully evaluated
/// `pop`; `None` when the population cannot be planned (extinction).
pub fn evolution(pop: &Population) -> Option<Evolution> {
    let mut pop = pop.clone();
    let mut e = Evolution::default();
    let t = Instant::now();
    black_box(pop.speciate());
    e.speciate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plan = black_box(pop.plan_generation()).ok()?;
    e.plan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let children = black_box(pop.reproduce_centrally(&plan));
    e.reproduce_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    pop.install_next_generation(children);
    e.install_s = t.elapsed().as_secs_f64();
    Some(e)
}

/// Mean wall of one `steady_state_insert` on a copy of `pop`, seconds.
/// Each inserted child is given its parent's fitness so the population
/// stays fully evaluated from one insertion to the next.
pub fn steady_state_insert(pop: &Population, tournament_size: usize, events: u64) -> f64 {
    let mut pop = pop.clone();
    let mut total = 0.0;
    let mut done = 0u64;
    for event in 0..events {
        let t = Instant::now();
        let report = black_box(clan_neat::steady_state_insert(
            &mut pop,
            tournament_size,
            event,
        ));
        total += t.elapsed().as_secs_f64();
        let Some(report) = report else { break };
        done += 1;
        let fitness = pop
            .genome(report.parent1)
            .and_then(Genome::fitness)
            .unwrap_or(0.0);
        let _ = pop.set_fitness(report.child, fitness);
    }
    total / done.max(1) as f64
}
