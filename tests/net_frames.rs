//! Adversarial wire-format coverage: malformed frames and misbehaving
//! peers must surface *typed* [`ClanError`]s — never a panic, never a
//! hang, never an unbounded allocation.
//!
//! Covers truncated genome frames, oversized length prefixes, agent
//! disconnect mid-generation and replies that do not answer their run,
//! plus a property-based round-trip of the frame codec.

use clan::core::runtime::{AgentSource, EdgeCluster};
use clan::core::transport::agent::{serve_session, AgentServer};
use clan::core::transport::{
    channel_pair, datagram_channel_pair, decode, encode, recv_message, send_message, ClusterSpec,
    FaultConfig, FaultyTransport, TcpTransport, Transport, UdpConfig, UdpTransport, WireMessage,
    LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES,
};
use clan::core::{ClanError, FrameError, InferenceMode};
use clan::envs::Workload;
use clan::neat::population::Evaluation;
use clan::neat::reproduction::{ChildKind, ChildSpec};
use clan::neat::{
    ConnGene, ConnKey, FeedForwardNetwork, Genome, GenomeId, NeatConfig, NodeGene, NodeId,
    Population, Scratch, SpeciesId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpListener;

fn neat_cfg(pop: usize) -> NeatConfig {
    let w = Workload::CartPole;
    NeatConfig::builder(w.obs_dim(), w.n_actions())
        .population_size(pop)
        .build()
        .unwrap()
}

/// A genome with `mutations` mutation passes applied — arbitrary but
/// reproducible topology/attribute diversity.
fn genome(seed: u64, mutations: u64, with_fitness: bool) -> Genome {
    let cfg = neat_cfg(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Genome::new_initial(&cfg, GenomeId(seed), &mut rng);
    for _ in 0..mutations {
        g.mutate(&cfg, &mut rng);
    }
    if with_fitness {
        g.set_fitness(seed as f64 * 0.25 - 3.0);
    }
    g
}

/// `g` with genes at the edges of the id space spliced in, and every
/// float attribute replaced by a bit pattern from `bits` (cycled):
/// nothing an operator would evolve, everything the format must carry.
fn with_extreme_genes(g: &Genome, bits: &[u64]) -> Genome {
    let mut patterns = bits.iter().cycle().map(|&b| f64::from_bits(b));
    let mut next = || patterns.next().expect("bits is not empty");
    let mut nodes = g.nodes().clone();
    let mut conns = g.conns().clone();
    let derived = NodeId::derived_from_split(ConnKey::new(NodeId(-1), NodeId(0)), 3);
    for id in [NodeId(i64::MIN), NodeId(i64::MAX), derived] {
        nodes.insert(id, NodeGene::default());
    }
    for (i, o) in [
        (i64::MIN, i64::MIN),
        (i64::MIN, i64::MAX),
        (i64::MAX, i64::MIN),
        (i64::MAX, i64::MAX),
        (-1, derived.0),
        (derived.0, i64::MAX),
    ] {
        conns.insert(ConnKey::new(NodeId(i), NodeId(o)), ConnGene::default());
    }
    for node in nodes.values_mut() {
        (node.bias, node.response) = (next(), next());
    }
    for conn in conns.values_mut() {
        conn.weight = next();
    }
    let mut out = Genome::from_parts(g.id(), nodes, conns);
    if g.fitness().is_some() {
        out.set_fitness(next());
    }
    out
}

/// Every field of a genome flattened to integers, floats as their bits,
/// so that NaNs (never `==` to themselves) and `-0.0` (`==` to `0.0`)
/// compare exactly.
fn exact(g: &Genome) -> Vec<u64> {
    let mut fields = vec![g.id().0, g.fitness().map_or(u64::MAX, f64::to_bits)];
    fields.push(g.nodes().len() as u64);
    for (id, n) in g.nodes().iter() {
        fields.extend([id.0 as u64, n.bias.to_bits(), n.response.to_bits()]);
    }
    for (k, c) in g.conns().iter() {
        let weight = c.weight.to_bits();
        fields.extend([
            k.input.0 as u64,
            k.output.0 as u64,
            weight,
            c.enabled as u64,
        ]);
    }
    fields
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Evolved genomes (hash-derived hidden ids included) carrying ids
    /// at both ends of `i64` and arbitrary float bit patterns come back
    /// exactly, through every genome-bearing message.
    fn genomes_round_trip_bit_for_bit_at_the_edges_of_the_format(
        seed in 0u64..1000,
        mutations in 0u64..30,
        random_bits in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        // Signed zero, the smallest subnormal, a quiet and a signalling
        // NaN with payloads, both infinities — then the random patterns.
        let mut bits = vec![
            (-0.0f64).to_bits(),
            1,
            0x7FF8_0000_DEAD_BEEF,
            0xFFF0_0000_0000_0001,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::MIN_POSITIVE.to_bits() - 1,
        ];
        bits.extend(random_bits);
        let cfg = neat_cfg(4);
        let genomes: Vec<Genome> = (0..3)
            .map(|i| {
                let mut g = genome(seed + i, mutations, i % 2 == 0);
                // One more split on top of whatever `mutations` evolved.
                g.mutate_add_node(&cfg, &mut StdRng::seed_from_u64(seed));
                bits.rotate_left(1);
                with_extreme_genes(&g, &bits)
            })
            .collect();
        let sent: Vec<_> = genomes.iter().map(exact).collect();
        let messages = [
            WireMessage::Evaluate { generation: seed, master_seed: !seed, genomes: genomes.clone() },
            WireMessage::BuildChildren {
                generation: 1,
                master_seed: 2,
                specs: vec![],
                parents: genomes.clone(),
            },
            WireMessage::Children(genomes),
        ];
        for msg in &messages {
            let frame = encode(msg);
            let received = match decode(&frame) {
                Ok(WireMessage::Evaluate { genomes, .. })
                | Ok(WireMessage::BuildChildren { parents: genomes, .. })
                | Ok(WireMessage::Children(genomes)) => genomes,
                other => return Err(format!("decoded to {other:?}")),
            };
            prop_assert_eq!(received.iter().map(exact).collect::<Vec<_>>(), sent.clone());
            // And a byte-exact fixed point: what was decoded encodes to
            // the frame it came from.
            let again = match msg {
                WireMessage::Evaluate { generation, master_seed, .. } => WireMessage::Evaluate {
                    generation: *generation,
                    master_seed: *master_seed,
                    genomes: received,
                },
                WireMessage::BuildChildren { .. } => WireMessage::BuildChildren {
                    generation: 1,
                    master_seed: 2,
                    specs: vec![],
                    parents: received,
                },
                _ => WireMessage::Children(received),
            };
            prop_assert_eq!(encode(&again), frame);
        }
    }

    fn evaluate_frames_round_trip(
        seed in 0u64..1000,
        mutations in 0u64..30,
        n in 1usize..6,
        generation in any::<u64>(),
        master_seed in any::<u64>(),
    ) {
        let genomes: Vec<Genome> = (0..n)
            .map(|i| genome(seed + i as u64, mutations, i % 2 == 0))
            .collect();
        let msg = WireMessage::Evaluate { generation, master_seed, genomes };
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    fn fitness_frames_round_trip(
        id in any::<u64>(),
        fitness in -1.0e6f64..1.0e6,
        activations in any::<u64>(),
        genes in any::<u64>(),
    ) {
        let msg = WireMessage::Fitness(vec![(
            GenomeId(id),
            Evaluation { fitness, activations },
            genes,
        )]);
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    fn build_children_frames_round_trip(
        seed in 0u64..1000,
        mutations in 0u64..20,
        crossover in any::<bool>(),
        generation in any::<u64>(),
    ) {
        let parents = vec![genome(seed, mutations, true), genome(seed + 1, mutations, true)];
        let kind = if crossover {
            ChildKind::Crossover {
                parent1: parents[0].id(),
                parent2: parents[1].id(),
            }
        } else {
            ChildKind::Elite { source: parents[0].id() }
        };
        let msg = WireMessage::BuildChildren {
            generation,
            master_seed: seed,
            specs: vec![ChildSpec {
                child_id: GenomeId(seed + 100),
                species: SpeciesId(3),
                kind,
            }],
            parents,
        };
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    fn truncated_genome_frames_never_panic(
        seed in 0u64..500,
        mutations in 0u64..25,
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg = WireMessage::Evaluate {
            generation: 1,
            master_seed: 2,
            genomes: vec![genome(seed, mutations, true)],
        };
        let frame = encode(&msg);
        let cut = ((frame.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(decode(&frame[..cut]).is_err(), "cut at {} decoded", cut);
    }

    fn corrupted_bytes_never_panic(
        seed in 0u64..500,
        pos_fraction in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        // Flip one byte anywhere: decode must return (Ok or typed Err),
        // not panic. Most flips error; attribute-byte flips legitimately
        // decode to a different message.
        let msg = WireMessage::Evaluate {
            generation: 1,
            master_seed: 2,
            genomes: vec![genome(seed, 8, false)],
        };
        let mut frame = encode(&msg);
        let pos = ((frame.len() - 1) as f64 * pos_fraction) as usize;
        frame[pos] ^= xor;
        let _ = decode(&frame);
    }
}

/// Tuning shared by the ARQ proptests: small MTUs force heavy
/// fragmentation of even tiny frames; the fast retransmit timer keeps
/// seeded loss cheap in wall-clock.
fn arq_cfg(mtu: usize) -> UdpConfig {
    UdpConfig::default()
        .with_mtu(mtu)
        .with_retransmit_interval_s(0.002)
        .with_idle_timeout_s(5.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The fragmentation/reassembly headline: any frame, pushed through
    /// arbitrary MTU splits with seeded drop + duplicate + reorder
    /// faults on *both* endpoints, reconstructs bit-identically (both
    /// directions, multiple frames in order) and never panics or hangs.
    fn arq_reconstructs_frames_through_arbitrary_mtu_and_faults(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600), 1..4),
        mtu in 1usize..96,
        drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.25,
        reorder_p in 0.0f64..0.25,
        seed in any::<u64>(),
    ) {
        let cfg = arq_cfg(mtu);
        let plan = FaultConfig::default()
            .with_drop(drop_p)
            .with_dup(dup_p)
            .with_reorder(reorder_p);
        let (a, b) = datagram_channel_pair();
        let mut ta = UdpTransport::with_config(
            FaultyTransport::new(a, plan.clone().with_seed(seed)), &cfg);
        let mut tb = UdpTransport::with_config(
            FaultyTransport::new(b, plan.with_seed(seed ^ 0x9E3779B97F4A7C15)), &cfg);
        // Echo peer in its own thread, like a real agent session: each
        // side retransmits while *waiting*, so the pair makes progress
        // under any recoverable fault pattern.
        let echo_frames = frames.len();
        let echo = std::thread::spawn(move || -> Result<(), ClanError> {
            for _ in 0..echo_frames {
                let frame = tb.recv_frame()?;
                tb.send_frame(&frame)?;
            }
            // Keep retransmitting the last echo until the peer has it.
            // Best-effort: the *final ack* can always be lost (two
            // generals), so a drain timeout is not a failure — the peer
            // asserting it received the frame is the real check.
            let _ = tb.drain(std::time::Duration::from_millis(500));
            Ok(())
        });
        for frame in &frames {
            ta.send_frame(frame).unwrap();
            let back = ta.recv_frame().unwrap();
            prop_assert_eq!(&back, frame, "echoed frame diverged");
        }
        echo.join().expect("echo thread ran").expect("echo clean");
    }

    /// Loss-free fragmentation invariants: every frame splits into
    /// ceil(len/mtu) datagrams (min 1) and reassembles identically.
    fn fragmentation_round_trips_without_faults(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        mtu in 1usize..256,
    ) {
        let cfg = arq_cfg(mtu);
        let (a, b) = datagram_channel_pair();
        let mut ta = UdpTransport::with_config(a, &cfg);
        let mut tb = UdpTransport::with_config(b, &cfg);
        ta.send_frame(&payload).unwrap();
        prop_assert_eq!(tb.recv_frame().unwrap(), payload);
        prop_assert_eq!(tb.take_link_stats().dup_bytes, 0);
    }
}

#[test]
fn udp_agent_gone_silent_mid_generation_is_typed_timeout_not_hang() {
    // The datagram twin of the TCP disconnect test below: a UDP "agent"
    // that swallows every datagram and never answers. The coordinator
    // cannot observe a disconnect on a connectionless socket, so the
    // liveness deadline must surface a typed Timeout instead of hanging.
    use std::net::UdpSocket;
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = sink.local_addr().unwrap();
    let swallow = std::thread::spawn(move || {
        sink.set_read_timeout(Some(std::time::Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 65_535];
        while sink.recv(&mut buf).is_ok() {}
    });

    let cfg = neat_cfg(6);
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
    let udp = UdpConfig::default()
        .with_retransmit_interval_s(0.02)
        .with_idle_timeout_s(0.3);
    let remote = AgentSource::Remote {
        udp: Some(udp),
        spares: vec![addr.to_string()],
    };
    let mut cluster = EdgeCluster::from_source(1, spec, remote).unwrap();
    let mut pop = Population::new(cfg, 1);
    let start = std::time::Instant::now();
    match cluster.evaluate(&mut pop) {
        Err(ClanError::Timeout { waited, .. }) => {
            assert!(waited >= std::time::Duration::from_millis(290));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "silent peer must not stall the coordinator"
    );
    drop(cluster); // bounded shutdown drain, must not hang either
    swallow.join().unwrap();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // A raw socket announcing a frame bigger than MAX_FRAME_BYTES: the
    // coordinator must fail typed, not allocate 4 GiB or hang.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let rogue = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Swallow the Configure frame like a real agent would...
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut body).unwrap();
        // ...then answer the first request with a hostile length prefix.
        let mut req_len = [0u8; 4];
        stream.read_exact(&mut req_len).unwrap();
        let mut req = vec![0u8; u32::from_le_bytes(req_len) as usize];
        stream.read_exact(&mut req).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.flush().unwrap();
        // Hold the socket open so the error is the prefix, not EOF.
        std::thread::sleep(std::time::Duration::from_millis(300));
    });

    let cfg = neat_cfg(6);
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
    let remote = AgentSource::Remote {
        udp: None,
        spares: vec![addr.to_string()],
    };
    let mut cluster = EdgeCluster::from_source(1, spec, remote).unwrap();
    let mut pop = Population::new(cfg, 1);
    match cluster.evaluate(&mut pop) {
        Err(ClanError::Frame(FrameError::Oversized { announced, max })) => {
            assert_eq!(announced, u64::from(u32::MAX));
            assert_eq!(max, MAX_FRAME_BYTES);
        }
        other => panic!("expected Oversized frame error, got {other:?}"),
    }
    rogue.join().unwrap();
}

#[test]
fn deeply_nested_configure_payload_is_a_typed_error_not_a_dead_agent() {
    // A 1 MB Configure frame whose spec JSON is `[[[[...`: the JSON parser
    // recurses once per level, so unbounded it overflows the stack and
    // takes the whole agent process down from one frame.
    let payload = vec![b'['; 1_000_000];
    let mut frame = b"CLAN".to_vec();
    frame.extend_from_slice(&[clan::core::transport::codec::VERSION, 1]); // Configure
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);

    let mut server = AgentServer::bind("127.0.0.1:0", None).unwrap();
    let mut link = TcpTransport::connect(server.local_addr()).unwrap();
    let agent = std::thread::spawn(move || server.serve_once());
    link.send_frame(&frame).unwrap();
    let session = agent.join().expect("the agent thread must survive");
    assert!(
        matches!(
            session,
            Err(ClanError::Frame(FrameError::BadValue("spec json")))
        ),
        "{session:?}"
    );
    // The coordinator's end of the link fails typed as well, not hung.
    assert!(matches!(
        link.recv_frame(),
        Err(ClanError::Transport { .. })
    ));
    assert_eq!(decode(&frame), Err(FrameError::BadValue("spec json")));
}

#[test]
fn well_formed_frames_with_unusable_genomes_end_the_session_not_the_agent() {
    // The frames below decode — every key ascends, every count holds —
    // but no network can be built from the genomes they carry. Each used
    // to panic the agent thread inside `FeedForwardNetwork::compile` or
    // the first activation; under `clan-cli agent` that is the daemon.
    let cfg = neat_cfg(4); // CartPole: inputs -1..=-4, outputs 0 and 1
    let hand_built = |id, nodes: &[i64], conns: &[(i64, i64)]| {
        Genome::from_parts(
            GenomeId(id),
            nodes
                .iter()
                .map(|&n| (NodeId(n), NodeGene::default()))
                .collect(),
            conns
                .iter()
                .map(|&(i, o)| (ConnKey::new(NodeId(i), NodeId(o)), ConnGene::default()))
                .collect(),
        )
    };
    let hostile = [
        ("output 1 has no node gene", hand_built(1, &[0], &[(-1, 0)])),
        ("reads input 8 of 4", hand_built(2, &[0, 1], &[(-9, 0)])),
        (
            "cycle",
            hand_built(3, &[0, 1, 5], &[(-1, 5), (0, 5), (5, 0)]),
        ),
    ];

    let mut server = AgentServer::bind("127.0.0.1:0", None).unwrap();
    let addr = server.local_addr();
    // What `serve_forever` does, with the outcomes kept: one session
    // per hostile coordinator, then a well-behaved one.
    let sessions = hostile.len() + 1;
    let agent = std::thread::spawn(move || -> Vec<Result<(), ClanError>> {
        (0..sessions).map(|_| server.serve_once()).collect()
    });
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg);
    let session = |last: Genome| {
        let mut link = TcpTransport::connect(addr).unwrap();
        send_message(&mut link, &WireMessage::Configure(Box::new(spec.clone()))).unwrap();
        // A sound genome first: the bad one must not be the session's
        // only work, and must not poison what came before it.
        for genomes in [vec![genome(1, 5, false)], vec![genome(2, 5, false), last]] {
            let n = genomes.len();
            send_message(
                &mut link,
                &WireMessage::Evaluate {
                    generation: 0,
                    master_seed: 1,
                    genomes,
                },
            )
            .unwrap();
            match recv_message(&mut link) {
                Ok((WireMessage::Fitness(results), _)) => assert_eq!(results.len(), n),
                other => return (link, Some(other)),
            }
        }
        (link, None)
    };
    for (_, genome) in &hostile {
        let (_, outcome) = session(genome.clone());
        // The coordinator's end: a typed transport error (the agent hung
        // up), not a hang and not a Fitness for the bad batch.
        assert!(
            matches!(outcome, Some(Err(ClanError::Transport { .. }))),
            "{outcome:?}"
        );
    }
    let (mut link, outcome) = session(genome(3, 5, false));
    assert!(
        outcome.is_none(),
        "a sound session after three bad ones: {outcome:?}"
    );
    send_message(&mut link, &WireMessage::Shutdown).unwrap();

    let outcomes = agent.join().expect("the agent thread must survive");
    for ((why, _), outcome) in hostile.iter().zip(&outcomes) {
        match outcome {
            Err(ClanError::Protocol { reason, .. }) => assert!(reason.contains(why), "{reason}"),
            other => panic!("expected a protocol error naming `{why}`, got {other:?}"),
        }
    }
    assert_eq!(outcomes[hostile.len()], Ok(()));
}

#[test]
fn nan_outputs_get_a_fitness_reply_not_a_dead_link() {
    // Hidden nodes 5 and 6 read input 0 alike, so output 0 sums
    // `inf·s − inf·s` for a sigmoid `s > 0`: the genome compiles (unlike
    // the ones above), and output 0 is NaN on every step. The argmax used
    // to `expect("finite outputs")`, so one such genome — reachable by
    // weight mutation alone — killed the agent thread and the link.
    let nan_genome = |id: u64, gain: f64| {
        let conn = |i, o, weight| {
            let gene = ConnGene {
                weight,
                enabled: true,
            };
            (ConnKey::new(NodeId(i), NodeId(o)), gene)
        };
        Genome::from_parts(
            GenomeId(id),
            [0, 1, 5, 6]
                .map(|n| (NodeId(n), NodeGene::default()))
                .into(),
            [
                conn(-1, 5, gain),
                conn(-1, 6, gain),
                conn(5, 0, f64::INFINITY),
                conn(6, 0, f64::NEG_INFINITY),
            ]
            .into(),
        )
    };
    let cfg = neat_cfg(4);
    let net = FeedForwardNetwork::compile(&nan_genome(1, 1.0), &cfg);
    let mut scratch = Scratch::new();
    for x in [-0.05, 0.0, 0.05] {
        let out = net.activate_into(&[x; 4], &mut scratch);
        assert!(out[0].is_nan() && !out[1].is_nan(), "{out:?}");
    }
    let mut cluster = EdgeCluster::spawn_local_spec(
        1,
        ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, cfg.clone()),
    )
    .unwrap();
    // One alone, then two of one shape in one request (different
    // weights, so neither is a cache hit).
    for genomes in [
        vec![nan_genome(1, 1.0)],
        vec![nan_genome(2, 2.0), nan_genome(3, 3.0)],
    ] {
        let mut pop = Population::new(cfg.clone(), 1);
        pop.replace_genomes(genomes.clone());
        let results = cluster.evaluate_collect(&pop).expect("a Fitness reply");
        assert_eq!(results.len(), genomes.len());
        for (_, eval, _) in results {
            // NaN never wins: the policy is "always action 1", a short
            // but perfectly ordinary CartPole episode.
            assert!(eval.fitness.is_finite() && eval.activations > 0, "{eval:?}");
        }
    }
}

#[test]
fn agent_disconnect_mid_generation_is_typed_error_not_hang() {
    // An "agent" that accepts the session, takes the work, and dies
    // without answering — the coordinator's gather must surface
    // ClanError::Transport instead of blocking forever or panicking.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let rogue = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        for _ in 0..2 {
            // Read Configure, then the Evaluate request, then vanish.
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).unwrap();
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut body).unwrap();
        }
        drop(stream);
    });

    let cfg = neat_cfg(6);
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
    let remote = AgentSource::Remote {
        udp: None,
        spares: vec![addr.to_string()],
    };
    let mut cluster = EdgeCluster::from_source(1, spec, remote).unwrap();
    let mut pop = Population::new(cfg, 1);
    assert!(matches!(
        cluster.evaluate(&mut pop),
        Err(ClanError::Transport { .. })
    ));
    rogue.join().unwrap();
}

/// Rewrites an honest agent's reply.
type Tamper = fn(WireMessage) -> WireMessage;

/// A real agent behind a proxy that rewrites each of its replies with
/// `tamper` — a scripted hostile agent — plus the peer name the
/// coordinator's link reports.
fn tampered_cluster(pop: usize, tamper: Tamper) -> (EdgeCluster, String) {
    let (coordinator, mut proxy) = channel_pair();
    let (mut upstream, mut agent) = channel_pair();
    std::thread::spawn(move || {
        let _ = serve_session(&mut agent);
    });
    std::thread::spawn(move || {
        while let Ok((request, _)) = recv_message(&mut proxy) {
            let answered = matches!(
                request,
                WireMessage::Evaluate { .. } | WireMessage::BuildChildren { .. }
            );
            if send_message(&mut upstream, &request).is_err() {
                return;
            }
            if answered {
                let Ok((reply, _)) = recv_message(&mut upstream) else {
                    return;
                };
                if send_message(&mut proxy, &tamper(reply)).is_err() {
                    return;
                }
            }
        }
    });
    let peer = coordinator.peer();
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::MultiStep, neat_cfg(pop));
    let cluster = EdgeCluster::connect_transports(vec![Box::new(coordinator)], spec).unwrap();
    (cluster, peer)
}

/// `err` is a protocol violation blamed on `peer` whose reason says `what`.
fn assert_protocol(err: ClanError, peer: &str, what: &str) {
    match err {
        ClanError::Protocol {
            peer: blamed,
            reason,
        } => {
            assert_eq!(blamed, peer, "{reason}");
            assert!(reason.contains(what), "{reason:?} does not say {what:?}");
        }
        other => panic!("expected a protocol violation ({what}), got {other:?}"),
    }
}

#[test]
fn fitness_replies_that_do_not_answer_their_run_are_typed_and_change_nothing() {
    // 24 genomes on one agent go out in runs of three.
    let cases: [(Tamper, &str); 5] = [
        (
            |m| match m {
                WireMessage::Fitness(mut batch) => {
                    batch.pop();
                    WireMessage::Fitness(batch)
                }
                m => m,
            },
            "2 entries for a run of 3",
        ),
        (
            |m| match m {
                WireMessage::Fitness(mut batch) => {
                    batch[2].0 = batch[0].0;
                    WireMessage::Fitness(batch)
                }
                m => m,
            },
            "a duplicate",
        ),
        (
            |m| match m {
                WireMessage::Fitness(mut batch) => {
                    batch[1].0 = GenomeId(999_999);
                    WireMessage::Fitness(batch)
                }
                m => m,
            },
            "not in the run",
        ),
        (
            |m| match m {
                WireMessage::Fitness(mut batch) => {
                    batch.swap(0, 1);
                    WireMessage::Fitness(batch)
                }
                m => m,
            },
            "out of order",
        ),
        (
            |m| match m {
                WireMessage::Fitness(_) => WireMessage::Children(Vec::new()),
                m => m,
            },
            "expected Fitness, got Children",
        ),
    ];
    for (tamper, what) in cases {
        let (mut cluster, peer) = tampered_cluster(24, tamper);
        let mut pop = Population::new(neat_cfg(24), 5);
        assert_protocol(cluster.evaluate(&mut pop).unwrap_err(), &peer, what);
        assert!(
            pop.genomes().values().all(|g| g.fitness().is_none()),
            "{what}: nothing is recorded from a round that failed"
        );
        cluster.shutdown();
    }
}

#[test]
fn children_replies_that_do_not_answer_their_run_are_typed() {
    let cases: [(Tamper, &str); 3] = [
        (
            |m| match m {
                WireMessage::Children(mut children) => {
                    children.pop();
                    WireMessage::Children(children)
                }
                m => m,
            },
            "entries for a run of",
        ),
        (
            |m| match m {
                WireMessage::Children(mut children) => {
                    children.push(children[0].clone());
                    WireMessage::Children(children)
                }
                m => m,
            },
            "entries for a run of",
        ),
        (
            |m| match m {
                WireMessage::Children(children) => WireMessage::Fitness(
                    children
                        .iter()
                        .map(|c| {
                            (
                                c.id(),
                                Evaluation {
                                    fitness: 0.0,
                                    activations: 0,
                                },
                                0,
                            )
                        })
                        .collect(),
                ),
                m => m,
            },
            "expected Children, got Fitness",
        ),
    ];
    for (tamper, what) in cases {
        let (mut cluster, peer) = tampered_cluster(12, tamper);
        let mut pop = Population::new(neat_cfg(12), 5);
        cluster
            .evaluate(&mut pop)
            .expect("Fitness passes untouched");
        pop.speciate();
        let plan = pop.plan_generation().unwrap();
        assert_protocol(
            cluster.build_children(&pop, &plan).unwrap_err(),
            &peer,
            what,
        );
        assert_eq!(pop.generation(), 0, "{what}: no child was installed");
        cluster.shutdown();
    }
}

#[test]
fn truncated_genome_frame_through_a_real_socket() {
    // The checklist's literal case: a genome frame cut mid-gene arriving
    // over TCP. The agent-side decode path must produce a typed error
    // (observed here as the agent closing the session, which the
    // coordinator reports as a transport failure), never a panic.
    let msg = WireMessage::Evaluate {
        generation: 0,
        master_seed: 7,
        genomes: vec![genome(3, 10, false)],
    };
    let frame = encode(&msg);
    let truncated = &frame[..frame.len() / 2];
    assert!(matches!(
        decode(truncated),
        Err(FrameError::Truncated { .. })
    ));
    // And end-to-end: wire_bytes accounting matches the announced frame.
    assert_eq!(
        clan::core::transport::wire_bytes(&frame),
        frame.len() as u64 + LENGTH_PREFIX_BYTES
    );
}
