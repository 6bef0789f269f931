//! Criterion benchmark of one reliable-UDP round at `airraid-gen-udp`'s
//! request size: a 590 KB frame (492 `DATA` fragments at the default
//! 1200 B MTU) over loopback sockets, answered by a one-fragment reply.
//! It runs clean, and behind `FaultyTransport` with 5 % seeded loss on
//! the requesting side (both directions), as a cluster injects it.
//!
//! Besides criterion's mean per round, each condition prints the p50 and
//! p90 of `ROUNDS` more rounds and both ends' `LinkStats` per round.
//!
//! `cargo bench -p clan-bench --offline --bench udp_round`

use clan_core::transport::{
    FaultConfig, FaultyTransport, LinkStats, Transport, UdpConfig, UdpLink, UdpTransport,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::net::UdpSocket;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const REQUEST_BYTES: usize = 590_000;
const REPLY: &[u8] = b"fitness";
const ROUNDS: usize = 300;

/// The requesting end, and the responder's thread, which hands back its
/// own `LinkStats` once it is sent an empty frame.
fn pair(loss: Option<f64>) -> (Box<dyn Transport>, JoinHandle<LinkStats>) {
    let (near, far) = (
        UdpSocket::bind("127.0.0.1:0").unwrap(),
        UdpSocket::bind("127.0.0.1:0").unwrap(),
    );
    let (near_addr, far_addr) = (near.local_addr().unwrap(), far.local_addr().unwrap());
    near.connect(far_addr).unwrap();
    far.connect(near_addr).unwrap();
    let cfg = UdpConfig::default().with_idle_timeout_s(5.0);
    let mut responder =
        UdpTransport::with_config(UdpLink::from_socket(far, near_addr.to_string()), &cfg);
    let responder = std::thread::spawn(move || {
        while !responder.recv_frame().unwrap().is_empty() {
            responder.send_frame(REPLY).unwrap();
        }
        responder.linger();
        responder.take_link_stats()
    });
    let link = UdpLink::from_socket(near, far_addr.to_string());
    let requester: Box<dyn Transport> = match loss {
        Some(p) => Box::new(UdpTransport::with_config(
            FaultyTransport::new(link, FaultConfig::loss(p).with_seed(7)),
            &cfg,
        )),
        None => Box::new(UdpTransport::with_config(link, &cfg)),
    };
    (requester, responder)
}

fn round(requester: &mut dyn Transport, request: &[u8]) {
    requester.send_frame(request).unwrap();
    assert_eq!(requester.recv_frame().unwrap(), REPLY);
}

fn per_round(s: &LinkStats, rounds: usize) -> String {
    let r = rounds as f64;
    format!(
        "retrans {:.2} dgrams ({:.0} B), dup {:.2} dgrams ({:.0} B), timer probes {:.2}",
        s.retrans_datagrams as f64 / r,
        s.retrans_bytes as f64 / r,
        s.dup_datagrams as f64 / r,
        s.dup_bytes as f64 / r,
        s.timer_probes as f64 / r,
    )
}

fn bench_udp_round(c: &mut Criterion) {
    let request: Vec<u8> = (0..REQUEST_BYTES).map(|i| (i * 31 % 251) as u8).collect();
    for (name, loss) in [("clean", None), ("loss_5pct", Some(0.05))] {
        let (mut requester, responder) = pair(loss);
        c.bench_function(format!("udp_round/{name}"), |b| {
            b.iter(|| round(requester.as_mut(), &request))
        });
        requester.take_link_stats();
        let mut walls: Vec<Duration> = (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                round(requester.as_mut(), &request);
                start.elapsed()
            })
            .collect();
        let near = requester.take_link_stats();
        requester.send_frame(&[]).unwrap();
        requester.drain(Duration::from_secs(1)).unwrap();
        let far = responder.join().unwrap();
        walls.sort();
        let mean = walls.iter().sum::<Duration>() / ROUNDS as u32;
        let at = |q: f64| walls[((ROUNDS - 1) as f64 * q) as usize];
        println!(
            "udp_round/{name}: {ROUNDS} rounds, mean {mean:?}, p50 {:?}, p90 {:?}",
            at(0.5),
            at(0.9)
        );
        println!("  requester per round: {}", per_round(&near, ROUNDS));
        println!("  responder over the run: {}", per_round(&far, 1));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_udp_round
}
criterion_main!(benches);
