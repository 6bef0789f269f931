//! Property-based tests (proptest) over the core data structures and
//! invariants of the CLAN stack.

use clan::envs::Workload;
use clan::hw::Platform;
use clan::neat::genome::Genome;
use clan::neat::rng::{derive_seed, op_rng, OpTag};
use clan::neat::{ConnKey, GenomeId, NeatConfig, NodeId, Population, Scratch};
use clan::netsim::WifiModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_cfg() -> impl Strategy<Value = NeatConfig> {
    (1usize..6, 1usize..4).prop_map(|(inputs, outputs)| {
        NeatConfig::builder(inputs, outputs)
            .population_size(10)
            .build()
            .expect("valid config")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- NEAT genome invariants ----------------

    #[test]
    fn mutation_streams_preserve_genome_invariants(
        cfg in arb_cfg(),
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..4, 0..40),
    ) {
        let mut g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        for op in ops {
            match op {
                0 => g.mutate_add_node(&cfg, &mut rng),
                1 => g.mutate_delete_node(&cfg, &mut rng),
                2 => g.mutate_add_connection(&cfg, &mut rng),
                _ => g.mutate_delete_connection(&mut rng),
            }
            prop_assert!(g.check_invariants(&cfg).is_ok(),
                "invariant broken after op {op}: {:?}", g.check_invariants(&cfg));
        }
    }

    #[test]
    fn distance_is_a_semimetric(
        cfg in arb_cfg(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        n1 in 0u32..15,
        n2 in 0u32..15,
    ) {
        let mut a = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(s1));
        let mut b = Genome::new_initial(&cfg, GenomeId(1), &mut StdRng::seed_from_u64(s2));
        let mut ra = StdRng::seed_from_u64(s1 ^ 1);
        let mut rb = StdRng::seed_from_u64(s2 ^ 2);
        for _ in 0..n1 { a.mutate(&cfg, &mut ra); }
        for _ in 0..n2 { b.mutate(&cfg, &mut rb); }
        let dab = a.distance(&b, &cfg);
        let dba = b.distance(&a, &cfg);
        prop_assert!((dab - dba).abs() < 1e-9, "symmetry: {dab} vs {dba}");
        prop_assert!(dab >= 0.0);
        prop_assert_eq!(a.distance(&a, &cfg), 0.0);
    }

    #[test]
    fn crossover_never_invents_genes(
        cfg in arb_cfg(),
        s in any::<u64>(),
        muts in 0u32..10,
    ) {
        let mut p1 = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(s));
        let mut p2 = Genome::new_initial(&cfg, GenomeId(1), &mut StdRng::seed_from_u64(s ^ 9));
        let mut r = StdRng::seed_from_u64(s ^ 3);
        for _ in 0..muts {
            p1.mutate(&cfg, &mut r);
            p2.mutate(&cfg, &mut r);
        }
        let child = Genome::crossover(&p1, &p2, GenomeId(2), &mut StdRng::seed_from_u64(s ^ 4));
        for k in child.conns().keys() {
            prop_assert!(p1.conns().contains_key(k));
        }
        for k in child.nodes().keys() {
            prop_assert!(p1.nodes().contains_key(k));
        }
        prop_assert!(child.check_invariants(&cfg).is_ok());
    }

    #[test]
    fn derived_node_ids_never_collide_with_io(
        input in -100i64..0,
        output in 0i64..100,
        occurrence in 0u32..50,
    ) {
        let key = ConnKey::new(NodeId(input), NodeId(output));
        let id = NodeId::derived_from_split(key, occurrence);
        prop_assert!(id.0 >= NodeId::DERIVED_FLOOR);
    }

    // ---------------- deterministic RNG derivation ----------------

    #[test]
    fn derive_seed_is_pure(master in any::<u64>(), tags in proptest::collection::vec(any::<u64>(), 0..6)) {
        prop_assert_eq!(derive_seed(master, &tags), derive_seed(master, &tags));
    }

    #[test]
    fn op_rng_streams_differ_by_entity(master in any::<u64>(), gen in any::<u64>(), e1 in any::<u64>(), e2 in any::<u64>()) {
        prop_assume!(e1 != e2);
        use rand::Rng;
        let a = op_rng(master, gen, e1, OpTag::Mutation).gen::<u128>();
        let b = op_rng(master, gen, e2, OpTag::Mutation).gen::<u128>();
        prop_assert_ne!(a, b);
    }

    // ---------------- population-level invariants ----------------

    #[test]
    fn population_size_is_conserved(seed in any::<u64>(), gens in 1u32..5) {
        let cfg = NeatConfig::builder(3, 2).population_size(14).build().expect("config");
        let mut pop = Population::new(cfg, seed);
        let mut scratch = Scratch::new();
        for _ in 0..gens {
            pop.evaluate(|net, _| net.activate_into(&[0.1, 0.2, 0.3], &mut scratch)[0]);
            pop.advance_generation();
            prop_assert_eq!(pop.len(), 14);
        }
    }

    #[test]
    fn genome_ids_strictly_increase_across_generations(seed in any::<u64>()) {
        let cfg = NeatConfig::builder(2, 1).population_size(10).build().expect("config");
        let mut pop = Population::new(cfg, seed);
        let mut prev_max = pop.genomes().keys().max().copied().expect("nonempty");
        for _ in 0..3 {
            pop.evaluate(|_, g| (g.id().0 % 5) as f64);
            pop.advance_generation();
            let min = pop.genomes().keys().min().copied().expect("nonempty");
            prop_assert!(min > prev_max, "ids must be fresh each generation");
            prev_max = pop.genomes().keys().max().copied().expect("nonempty");
        }
    }

    // ---------------- environment invariants ----------------

    #[test]
    fn environments_are_deterministic_and_bounded(
        seed in any::<u64>(),
        actions in proptest::collection::vec(0usize..2, 1..50),
    ) {
        for w in [Workload::CartPole, Workload::MountainCar, Workload::LunarLander] {
            let mut a = w.make();
            let mut b = w.make();
            prop_assert_eq!(a.reset(seed), b.reset(seed));
            for &act in &actions {
                let act = act % w.n_actions();
                let sa = a.step(act);
                let sb = b.step(act);
                prop_assert_eq!(&sa, &sb);
                prop_assert!(sa.obs.iter().all(|v| v.is_finite()));
                prop_assert!(sa.reward.is_finite());
                if sa.done { break; }
            }
        }
    }

    #[test]
    fn ram_observations_stay_normalized(seed in any::<u64>(), steps in 1usize..60) {
        let mut env = Workload::AirRaid.make();
        env.reset(seed);
        for t in 0..steps {
            let s = env.step(t % env.n_actions());
            prop_assert_eq!(s.obs.len(), 128);
            prop_assert!(s.obs.iter().all(|&v| (0.0..=1.0).contains(&v)));
            if s.done { break; }
        }
    }

    // ---------------- cost model invariants ----------------

    #[test]
    fn wifi_transfer_time_is_monotone(bytes1 in 0u64..1_000_000, extra in 0u64..1_000_000) {
        let w = WifiModel::default();
        prop_assert!(w.transfer_time_s(bytes1 + extra) >= w.transfer_time_s(bytes1));
    }

    #[test]
    fn wifi_fragmented_transfer_bounds_the_per_message_model(
        bytes in 0u64..1_000_000,
        extra in 0u64..1_000_000,
        mtu in 1u64..10_000,
    ) {
        // Per-datagram latency can only add cost: the fragmented time is
        // never below the per-message model, equals it for messages that
        // fit one datagram, charges exactly ceil(bytes/mtu) latencies,
        // and stays monotone in the message size.
        let w = WifiModel::default();
        let frag = w.transfer_time_fragmented_s(bytes, mtu);
        prop_assert!(frag >= w.transfer_time_s(bytes) - 1e-12);
        if bytes <= mtu {
            prop_assert!((frag - w.transfer_time_s(bytes)).abs() < 1e-12);
        }
        let datagrams = bytes.div_ceil(mtu).max(1);
        let expected = datagrams as f64 * w.base_latency_s
            + (bytes * 8) as f64 / w.bandwidth_bps;
        prop_assert!((frag - expected).abs() < 1e-9);
        prop_assert!(
            w.transfer_time_fragmented_s(bytes + extra, mtu) >= frag - 1e-12,
            "monotone in bytes"
        );
    }

    #[test]
    fn wifi_scaled_components_scale_exactly(
        bw_factor in 0.05f64..20.0,
        lat_factor in 0.05f64..20.0,
        bytes in 0u64..1_000_000,
    ) {
        // `scaled` now rejects degenerate factors (zero/negative/NaN
        // panic, pinned by unit tests); for every *valid* factor pair
        // the components and the resulting transfer time must scale
        // exactly as documented.
        let w = WifiModel::default();
        let s = w.scaled(bw_factor, lat_factor);
        prop_assert!((s.bandwidth_bps - w.bandwidth_bps * bw_factor).abs() < 1e-6);
        prop_assert!((s.base_latency_s - w.base_latency_s / lat_factor).abs() < 1e-12);
        prop_assert!((s.channel_setup_s - w.channel_setup_s / lat_factor).abs() < 1e-12);
        let expected = w.base_latency_s / lat_factor
            + (bytes * 8) as f64 / (w.bandwidth_bps * bw_factor);
        prop_assert!((s.transfer_time_s(bytes) - expected).abs() < 1e-9);
    }

    // ---------------- borrowed encoders, fanned-out hashing ----------------

    #[test]
    fn borrowed_encoders_and_fanned_hashes_match_the_owned_paths(
        cfg in arb_cfg(),
        seed in any::<u64>(),
        generation in any::<u64>(),
        n in 0u64..7,
        muts in 0u32..12,
    ) {
        use clan::core::transport::codec::{encode_build_children, encode_evaluate};
        use clan::core::transport::{encode, WireMessage};
        use clan::neat::fanout::fan_out;
        use clan::neat::reproduction::{ChildKind, ChildSpec};
        use clan::neat::SpeciesId;
        let mut rng = StdRng::seed_from_u64(seed);
        let genomes: Vec<Genome> = (0..n)
            .map(|i| {
                let mut g = Genome::new_initial(&cfg, GenomeId(i), &mut rng);
                for _ in 0..muts {
                    g.mutate(&cfg, &mut rng);
                }
                if i % 2 == 0 {
                    g.set_fitness(i as f64 - 0.5);
                }
                g
            })
            .collect();
        let borrowed: Vec<&Genome> = genomes.iter().collect();
        let owned = WireMessage::Evaluate {
            generation,
            master_seed: seed,
            genomes: genomes.clone(),
        };
        prop_assert_eq!(encode(&owned), encode_evaluate(generation, seed, &borrowed));
        let specs: Vec<ChildSpec> = (0..n)
            .map(|i| ChildSpec {
                child_id: GenomeId(100 + i),
                species: SpeciesId(i as u32 % 3),
                kind: match i % 3 {
                    0 => ChildKind::Elite { source: GenomeId(i) },
                    _ => ChildKind::Crossover { parent1: GenomeId(i), parent2: GenomeId(i / 2) },
                },
            })
            .collect();
        let owned = WireMessage::BuildChildren {
            generation,
            master_seed: seed,
            specs: specs.clone(),
            parents: genomes.clone(),
        };
        prop_assert_eq!(
            encode(&owned),
            encode_build_children(generation, seed, &specs, &borrowed)
        );
        // Claimed work above and below the gene floor: with and without
        // worker threads the hashes are `content_hash`'s, in input order.
        let serial: Vec<u64> = genomes.iter().map(Genome::content_hash).collect();
        prop_assert_eq!(&fan_out(&borrowed, u64::MAX, |g| g.content_hash()), &serial);
        prop_assert_eq!(&fan_out(&borrowed, 0, |g| g.content_hash()), &serial);
    }

    // ---------------- lossy-transport invariants ----------------

    #[test]
    fn fault_plan_link_seeds_are_stable_and_distinct(
        seed in any::<u64>(),
        link_a in 0usize..64,
        link_b in 0usize..64,
    ) {
        use clan::core::transport::FaultConfig;
        let plan = FaultConfig::loss(0.1).with_seed(seed);
        // Reproducible: the same link always draws the same stream.
        prop_assert_eq!(plan.for_link(link_a).seed, plan.for_link(link_a).seed);
        // Independent: different links never share a stream.
        if link_a != link_b {
            prop_assert_ne!(plan.for_link(link_a).seed, plan.for_link(link_b).seed);
        }
    }

    #[test]
    fn udp_fragmentation_reassembles_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
        mtu in 1usize..128,
    ) {
        use clan::core::transport::{datagram_channel_pair, Transport, UdpConfig, UdpTransport};
        let cfg = UdpConfig::default().with_mtu(mtu);
        let (a, b) = datagram_channel_pair();
        let mut ta = UdpTransport::with_config(a, &cfg);
        let mut tb = UdpTransport::with_config(b, &cfg);
        ta.send_frame(&payload).unwrap();
        prop_assert_eq!(tb.recv_frame().unwrap(), payload);
    }

    #[test]
    fn platform_time_is_monotone_and_positive(genes in 1u64..100_000_000) {
        let p = Platform::raspberry_pi();
        let t = p.inference_time_s(genes);
        prop_assert!(t > 0.0);
        prop_assert!(p.inference_time_s(genes + 1) >= t);
        prop_assert!(p.evolution_time_s(genes) <= t,
            "evolution ops are modeled faster per gene than inference");
    }

    // ---------------- telemetry exporters ----------------

    #[test]
    fn arbitrary_event_sequences_export_without_panic(
        events in proptest::collection::vec(arb_trace_event(), 0..40),
        n_agents in 0u64..8,
    ) {
        use clan::core::telemetry::{from_jsonl, to_jsonl};
        use clan_trace_tools::{agent_count, chrome, MAX_AGENTS};
        let trace = clan::core::RunTrace { events };
        // JSONL round-trips every event bit-exactly (floats are stored
        // as IEEE-754 bits, so there is no decimal detour to lose).
        let jsonl = to_jsonl(&trace).expect("any event serializes");
        prop_assert_eq!(from_jsonl(&jsonl).expect("parses back"), trace.events.clone());
        // Chrome rendering names one track per agent plus the
        // coordinator's, and refuses (never hangs on) an agent count no
        // cluster has: the soup's agent ids are arbitrary `u64`s, so run
        // it as is and with its ids folded below `n_agents`.
        let mut folded = trace.events.clone();
        for ev in &mut folded {
            ev.agent = ev.agent.map(|a| a % n_agents.max(1));
        }
        for events in [&trace.events, &folded] {
            match (agent_count(events), chrome::records(events)) {
                (Ok(agents), Ok(records)) => {
                    prop_assert!(agents <= MAX_AGENTS);
                    let tracks: Vec<&str> = records
                        .iter()
                        .filter_map(|r| r.track.as_deref())
                        .collect();
                    prop_assert_eq!(tracks.len() as u64, agents + 1);
                    prop_assert_eq!(tracks.last().copied(), Some("coordinator"));
                    let json = chrome::render(&records);
                    prop_assert_eq!(json.matches("\"ph\":").count(), records.len());
                }
                // Both refuse, and the same count, above the bound.
                (count, records) => {
                    let refused = count.err();
                    prop_assert_eq!(refused, records.err());
                    prop_assert!(refused.is_some_and(|n| n.0 > MAX_AGENTS));
                }
            }
        }
        // The logical text and hash are total functions of the events.
        let _ = trace.logical_text();
        let _ = trace.logical_hash();
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One to three seeded byte edits: bit flip, overwrite or insert of a
/// byte the JSON grammar cares about, delete, truncate.
fn mutate(bytes: &mut Vec<u8>, rng: &mut u64) {
    const GRAMMAR: &[u8] = b"[]{}\",:-+.eE019\\u nN\x00\xFF";
    for _ in 0..1 + xorshift(rng) % 3 {
        if bytes.is_empty() {
            return;
        }
        let at = (xorshift(rng) % bytes.len() as u64) as usize;
        let pick = GRAMMAR[(xorshift(rng) % GRAMMAR.len() as u64) as usize];
        match xorshift(rng) % 5 {
            0 => bytes[at] ^= 1 << (xorshift(rng) % 8),
            1 => bytes[at] = pick,
            2 => bytes.insert(at, pick),
            3 => drop(bytes.remove(at)),
            _ => bytes.truncate(at),
        }
    }
}

/// Seeded mutation fuzz of the readers on a trust boundary: the JSONL
/// loader behind `clan-trace`, the `ClusterSpec` JSON inside a
/// `Configure` frame, and the binary genome tables inside `Evaluate`,
/// `BuildChildren` and `Children` frames. Hostile bytes must come back
/// as `Ok` or a typed `Err`; a panic (or stack overflow) fails the test
/// by killing it.
#[test]
fn mutated_trace_lines_and_spec_frames_never_panic() {
    use clan::core::telemetry::{to_jsonl, EventKind, Tracer};
    use clan::core::transport::{decode, encode, ClusterSpec, WireMessage};
    use clan::core::InferenceMode;
    use clan::neat::reproduction::{ChildKind, ChildSpec};
    use clan::neat::SpeciesId;

    let tracer = Tracer::new();
    tracer.logical(EventKind::RunStart, |e| {
        e.seed = Some(13);
        e.label = Some("Cartpole-v0 \"q\"\n".into());
        e.population = Some(150);
    });
    tracer.logical(EventKind::EvalResult, |e| {
        e.genome = Some(7);
        e.fitness_bits = Some(u64::MAX);
    });
    tracer.timing(EventKind::AgentExchange, |e| {
        e.agent = Some(1);
        e.dur_us = Some(4200);
    });
    tracer.logical(EventKind::Completion, |e| {
        (e.child, e.p1, e.p2, e.evicted) = (Some(9), Some(1), Some(2), None);
    });
    let jsonl = to_jsonl(&tracer.finish().expect("enabled")).expect("serializes");
    let lines: Vec<&[u8]> = jsonl.lines().map(str::as_bytes).collect();

    let cfg = NeatConfig::builder(4, 2).build().expect("valid config");
    let spec = ClusterSpec::new(Workload::CartPole, InferenceMode::SingleStep, cfg.clone());
    let frame = encode(&WireMessage::Configure(Box::new(spec)));
    // magic + version + tag, then the u32 length of the spec JSON.
    let (header, spec_json) = (&frame[..6], &frame[10..]);

    // Genome frames of every kind, from genomes with a few splits in
    // them (multi-byte key deltas, disabled genes, a fitness or none).
    let genomes: Vec<Genome> = (0..3u64)
        .map(|i| {
            let mut r = StdRng::seed_from_u64(i);
            let mut g = Genome::new_initial(&cfg, GenomeId(i), &mut r);
            for _ in 0..4 * i {
                g.mutate(&cfg, &mut r);
                g.mutate_add_node(&cfg, &mut r);
            }
            if i != 1 {
                g.set_fitness(i as f64 - 0.5);
            }
            g
        })
        .collect();
    let genome_frames = [
        encode(&WireMessage::Evaluate {
            generation: 3,
            master_seed: 13,
            genomes: genomes.clone(),
        }),
        encode(&WireMessage::BuildChildren {
            generation: 3,
            master_seed: 13,
            specs: vec![ChildSpec {
                child_id: GenomeId(9),
                species: SpeciesId(1),
                kind: ChildKind::Crossover {
                    parent1: GenomeId(0),
                    parent2: GenomeId(2),
                },
            }],
            parents: genomes.clone(),
        }),
        encode(&WireMessage::Children(genomes)),
    ];

    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let (mut trace_ok, mut trace_err, mut spec_ok, mut spec_err) = (0u32, 0u32, 0u32, 0u32);
    let (mut genome_ok, mut genome_err) = ([0u32; 3], [0u32; 3]);
    for case in 0..100_000usize {
        if case % 8 == 1 || case % 8 == 2 {
            let kind = case / 8 % genome_frames.len();
            let mut hostile = genome_frames[kind].clone();
            mutate(&mut hostile, &mut rng);
            match decode(&hostile) {
                Ok(_) => genome_ok[kind] += 1,
                Err(_) => genome_err[kind] += 1,
            }
        } else if case % 8 != 0 {
            let mut line = lines[case % lines.len()].to_vec();
            mutate(&mut line, &mut rng);
            match clan::core::telemetry::from_jsonl(&String::from_utf8_lossy(&line)) {
                Ok(_) => trace_ok += 1,
                Err(e) => {
                    assert!(e.starts_with("line "), "{e}");
                    trace_err += 1;
                }
            }
        } else {
            let mut json = spec_json.to_vec();
            mutate(&mut json, &mut rng);
            let mut hostile = header.to_vec();
            hostile.extend_from_slice(&(json.len() as u32).to_le_bytes());
            hostile.extend_from_slice(&json);
            match decode(&hostile) {
                Ok(_) => spec_ok += 1,
                Err(_) => spec_err += 1,
            }
        }
    }
    // Both outcomes occur on both readers, so the mutations reach past
    // the first byte and the parsers are not rejecting everything.
    assert!(
        trace_ok > 0 && trace_err > 0 && spec_ok > 0 && spec_err > 0,
        "trace {trace_ok}/{trace_err}, spec {spec_ok}/{spec_err}"
    );
    assert!(
        genome_ok.iter().chain(&genome_err).all(|&n| n > 0),
        "genome frames ok {genome_ok:?}, err {genome_err:?}"
    );
}

/// Checkpoint JSON under the same seeded mutations: a file is a trust
/// boundary too (`load_genome` deploys an expert, `load_population`
/// resumes a run). Every mutant is `Ok` or a typed `CheckpointError` —
/// never a panic. The format declares no lengths, so what a reader
/// allocates is bounded by the bytes it was handed. An accepted genome
/// still holds the table invariant the operators' binary searches and
/// merge-joins rest on, and compiles or is refused with a typed error.
#[test]
fn mutated_checkpoint_json_never_panics_and_never_yields_an_unsorted_table() {
    use clan::neat::checkpoint::{
        genome_from_json, genome_to_json, population_from_json, population_to_json, CheckpointError,
    };
    use clan::neat::FeedForwardNetwork;

    let cfg = NeatConfig::builder(3, 2)
        .population_size(6)
        .build()
        .expect("valid config");
    let mut r = StdRng::seed_from_u64(11);
    let mut expert = Genome::new_initial(&cfg, GenomeId(5), &mut r);
    for _ in 0..6 {
        expert.mutate(&cfg, &mut r);
        expert.mutate_add_node(&cfg, &mut r);
    }
    expert.set_fitness(-0.25);
    let genome_json = genome_to_json(&expert).expect("serializes");
    let mut pop = Population::new(cfg.clone(), 13);
    pop.evaluate(|_, g| g.num_genes() as f64);
    pop.advance_generation();
    let population_json = population_to_json(&pop).expect("serializes");
    assert_eq!(genome_from_json(&genome_json).expect("round trip"), expert);
    population_from_json(&population_json).expect("round trip");

    let ascending = |g: &Genome| {
        g.nodes().as_slice().windows(2).all(|w| w[0].0 < w[1].0)
            && g.conns().as_slice().windows(2).all(|w| w[0].0 < w[1].0)
    };
    let mut rng = 0xC0FF_EE00_D15E_A5E5u64;
    let (mut genome_ok, mut genome_err, mut pop_ok, mut pop_err) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..24_000usize {
        if case % 8 == 0 {
            let mut json = population_json.clone().into_bytes();
            mutate(&mut json, &mut rng);
            match population_from_json(&String::from_utf8_lossy(&json)) {
                Ok(restored) => {
                    assert!(restored.genomes().values().all(ascending));
                    pop_ok += 1;
                }
                Err(CheckpointError::Format(_) | CheckpointError::Neat(_)) => pop_err += 1,
                Err(other) => panic!("unexpected error class: {other:?}"),
            }
        } else {
            let mut json = genome_json.clone().into_bytes();
            mutate(&mut json, &mut rng);
            match genome_from_json(&String::from_utf8_lossy(&json)) {
                Ok(g) => {
                    assert!(ascending(&g), "unsorted table accepted: {g:?}");
                    let _ = g.content_hash();
                    let _ = FeedForwardNetwork::try_compile(&g, &cfg);
                    genome_ok += 1;
                }
                Err(CheckpointError::Format(_)) => genome_err += 1,
                Err(other) => panic!("unexpected error class: {other:?}"),
            }
        }
    }
    assert!(
        genome_ok > 0 && genome_err > 0 && pop_ok > 0 && pop_err > 0,
        "genome {genome_ok}/{genome_err}, population {pop_ok}/{pop_err}"
    );
}

/// Seeded hostile requests against a live status endpoint: request lines
/// with no CRLF, over the 1 KiB read buffer, invalid UTF-8, embedded
/// NULs, truncated anywhere. The client half-closes after writing, so no
/// case waits out the server's request budget. Each gets a well-formed
/// HTTP response or a clean close — never a panic or a wedged accept
/// thread — and the endpoint still answers afterwards.
#[test]
fn hostile_status_requests_get_a_response_or_a_clean_close() {
    use clan::core::{StatusHandle, StatusServer};
    use std::io::{ErrorKind, Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    let server = StatusServer::bind("127.0.0.1:0", StatusHandle::new()).expect("binds");
    let exchange = |request: &[u8]| -> Vec<u8> {
        let mut stream = TcpStream::connect(server.local_addr()).expect("endpoint accepts");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        // The server may answer and close before it has read all of an
        // oversized request; a failed write is its clean close.
        let _ = stream.write_all(request);
        let _ = stream.shutdown(Shutdown::Write);
        let mut response = Vec::new();
        match stream.read_to_end(&mut response) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!(
                    "accept thread wedged on {:?}",
                    String::from_utf8_lossy(request)
                )
            }
            // A reset (unread request bytes on the server side) is a close.
            Ok(_) | Err(_) => response,
        }
    };
    let bases: [Vec<u8>; 7] = [
        b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.1".to_vec(),
        b"GET /progress HTTP/1.1\nHost: x\n\n".to_vec(),
        [b"GET /".as_slice(), &[b'a'; 3000], b" HTTP/1.1\r\n\r\n"].concat(),
        b"GET /he\xFF\xFEalth\xC3\x28 HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /pro\0gress\0 HTTP/1.1\r\n\0\r\n".to_vec(),
        b"POST /metrics HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\nbody".to_vec(),
    ];
    let mut rng = 0x57A7_05F0_22ED_0001u64;
    let (mut answered, mut closed) = (0u32, 0u32);
    for case in 0..350usize {
        let mut request = bases[case % bases.len()].clone();
        match case % 3 {
            0 => mutate(&mut request, &mut rng),
            1 => request.truncate((xorshift(&mut rng) % (request.len() as u64 + 1)) as usize),
            _ => {}
        }
        let response = exchange(&request);
        if response.is_empty() {
            closed += 1;
            continue;
        }
        answered += 1;
        let text = String::from_utf8(response).expect("responses are UTF-8");
        let (head, body) = text.split_once("\r\n\r\n").expect("header block ends");
        assert!(
            head.starts_with("HTTP/1.1 200 OK\r\n")
                || head.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{head:?}"
        );
        assert!(
            head.contains(&format!("Content-Length: {}", body.len())),
            "{text:?}"
        );
    }
    assert!(
        answered > 0 && closed > 0,
        "{answered} answered, {closed} closed"
    );
    let health = String::from_utf8(exchange(b"GET /health HTTP/1.1\r\n\r\n")).expect("UTF-8");
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health:?}");
}

/// Strategy for one arbitrary [`clan::core::TraceEvent`]: any
/// determinism class, any kind, any sparse payload combination
/// (including nonsense ones no real emitter produces).
fn arb_trace_event() -> impl Strategy<Value = clan::core::TraceEvent> {
    use clan::core::{Determinism, EventKind, TraceEvent};
    const KINDS: [EventKind; 17] = [
        EventKind::RunStart,
        EventKind::GenerationStart,
        EventKind::EvalResult,
        EventKind::GenerationEnd,
        EventKind::Dispatch,
        EventKind::Completion,
        EventKind::Insertion,
        EventKind::ClusterInfo,
        EventKind::GatherRound,
        EventKind::AgentExchange,
        EventKind::Retransmission,
        EventKind::AgentFailure,
        EventKind::ChunkReassigned,
        EventKind::AgentKilled,
        EventKind::AgentRevived,
        EventKind::AgentJoined,
        EventKind::RunEnd,
    ];
    // Optional fields are (present, value) pairs; the label is carved
    // out of raw bits so it covers empty, short, and punctuation-heavy
    // printable strings without a regex strategy.
    (
        any::<u64>(),
        any::<bool>(),
        0usize..KINDS.len(),
        proptest::collection::vec((any::<bool>(), any::<u64>()), 8..9),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(move |(seq, logical, kind, nums, (has_label, lbits))| {
            let class = if logical {
                Determinism::Logical
            } else {
                Determinism::Timing
            };
            let opt = |i: usize| nums[i].0.then_some(nums[i].1);
            let mut ev = TraceEvent::base(class, KINDS[kind]);
            ev.seq = seq;
            ev.lseq = opt(0);
            ev.agent = opt(1);
            ev.vtime_us = opt(2);
            ev.wall_us = opt(3);
            ev.dur_us = opt(4);
            ev.genome = opt(5);
            ev.fitness_bits = opt(6);
            ev.child = opt(7);
            ev.label = has_label.then(|| {
                let len = (lbits % 25) as usize;
                (0..len)
                    .map(|i| {
                        let byte = (lbits.rotate_left(7 * i as u32) & 0xFF) as u8;
                        char::from(b' ' + byte % 95)
                    })
                    .collect()
            });
            ev
        })
}
