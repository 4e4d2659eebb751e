//! Run-ahead frame delivery under the bounded drain schedule.
//!
//! This file began life as a throwaway repro asking: "does a fast
//! neighbour's next-round frame overwrite the still-unabsorbed
//! current-round frame?" The original repro failed — and the triage
//! verdict (see DESIGN.md, "State integrity") is that the failure was a
//! misuse of the drain primitives, not a platform bug. The repro drained
//! with `drain_one(None, tag)` into a map keyed by *source rank only*,
//! while omitting the inter-round barrier that every production round
//! ends with (the engine closes every `exchange::step` round, after its
//! promote sweep, with a barrier or control exchange, and a shadow resync
//! with a control exchange). Without that barrier a fast peer legitimately
//! runs ahead: its round-`r+1` frame lands in the slow rank's mailbox
//! while the round-`r` frame is still unabsorbed, and the source-keyed
//! map overwrites the older frame. Delivery itself is FIFO per
//! (src, dst, tag) — nothing was lost or reordered on the wire.
//!
//! Two asserting regression tests replace the repro:
//!
//! * [`round_barrier_prevents_runahead`] — the production discipline: a
//!   barrier at the end of each round. With it, no frame from a future
//!   round can exist in any mailbox, so the original repro's exact
//!   per-round asserts hold deterministically.
//! * [`runahead_frames_arrive_fifo_per_source`] — the hazard variant:
//!   no barrier, so run-ahead frames DO arrive early. The drain loop
//!   keys by (src, round) instead of src, and asserts only the
//!   scheduling-independent invariants: per-source rounds arrive in
//!   strictly increasing order, no (src, round) pair is delivered twice,
//!   and every expected frame is eventually delivered.

use mpisim::{Config, Envelope, NetModel, Rank, RetryPolicy, World};
use std::collections::HashMap;
use std::time::Duration;

const ROUNDS: u32 = 3;

fn peers_of(me: usize) -> Vec<usize> {
    match me {
        0 => vec![1],
        1 => vec![0, 2],
        _ => vec![1],
    }
}

/// The original repro workload plus the production inter-round barrier.
/// The barrier guarantees every rank has absorbed all round-`r` frames
/// before anyone may send round `r+1`, so the strict "absorbed frame is
/// from the current round" assert is now correct and deterministic.
#[test]
fn round_barrier_prevents_runahead() {
    let cfg = Config::virtual_time(NetModel::origin2000())
        .with_mailbox_capacity(4)
        .with_watchdog(Duration::from_secs(5));
    let out = World::new(cfg).run(3, |rank| {
        let me = rank.rank();
        let peers = peers_of(me);
        let mut results = Vec::new();
        for round in 0..ROUNDS {
            if me == 2 {
                std::thread::sleep(Duration::from_millis(100));
            }
            // send phase (mimics exchange::send_shadows under bounded mailboxes)
            let mut frames: HashMap<usize, Envelope> = HashMap::new();
            for &p in &peers {
                loop {
                    if rank.offer_credit(p) {
                        rank.send_reliable_granted(
                            p,
                            1,
                            &(me as u32, round),
                            RetryPolicy::Escalate,
                        );
                        break;
                    }
                    if let Some(env) = rank.drain_one(None, 1) {
                        frames.insert(env.src, env);
                    } else {
                        rank.wait_incoming(Duration::from_millis(2));
                    }
                }
            }
            // collect phase (mimics exchange::bounded_collect)
            loop {
                let missing: Vec<usize> = peers
                    .iter()
                    .copied()
                    .filter(|p| !frames.contains_key(p))
                    .collect();
                if missing.is_empty() {
                    break;
                }
                let mut got = false;
                while let Some(env) = rank.drain_one(None, 1) {
                    frames.insert(env.src, env);
                    got = true;
                }
                if !got {
                    rank.wait_incoming(Duration::from_millis(2));
                }
            }
            for &p in &peers {
                let env = frames.remove(&p).unwrap();
                let (src, r): (u32, u32) = rank.absorb(env);
                assert_eq!(src as usize, p);
                assert_eq!(
                    r, round,
                    "rank {me} absorbed a round-{r} frame in round {round}"
                );
                results.push((round, src, r));
            }
            // The production discipline the original repro omitted: the
            // engine closes every exchange round with a barrier (or control
            // exchange), which is what makes source-keyed collection safe.
            rank.barrier();
        }
        results
    });
    for (r, results) in out.iter().enumerate() {
        assert_eq!(
            results.len(),
            peers_of(r).len() * ROUNDS as usize,
            "rank {r} must absorb one frame per peer per round"
        );
    }
}

/// The hazard variant: no barrier, so fast peers run ahead and their
/// future-round frames land early. That is legal — delivery stays FIFO
/// per source — so the drain loop must key by (src, round). Asserts only
/// the invariants that hold under every interleaving.
#[test]
fn runahead_frames_arrive_fifo_per_source() {
    let cfg = Config::virtual_time(NetModel::origin2000())
        .with_mailbox_capacity(4)
        .with_watchdog(Duration::from_secs(5));
    let out = World::new(cfg).run(3, |rank| {
        let me = rank.rank();
        let peers = peers_of(me);
        // Absorbed frames keyed by (src, round); survives across rounds
        // so run-ahead frames are buffered instead of clobbered.
        let mut pending: HashMap<(usize, u32), ()> = HashMap::new();
        let mut last_round: HashMap<usize, u32> = HashMap::new();
        fn note(
            me: usize,
            env: Envelope,
            rank: &Rank,
            pending: &mut HashMap<(usize, u32), ()>,
            last_round: &mut HashMap<usize, u32>,
        ) {
            let src = env.src;
            let (s, r): (u32, u32) = rank.absorb(env);
            assert_eq!(s as usize, src, "payload src must match envelope src");
            if let Some(&prev) = last_round.get(&src) {
                assert!(
                    r > prev,
                    "rank {me}: src {src} delivered round {r} after round {prev} \
                     — per-source FIFO violated"
                );
            }
            last_round.insert(src, r);
            let dup = pending.insert((src, r), ());
            assert!(
                dup.is_none(),
                "rank {me}: duplicate delivery of (src {src}, round {r})"
            );
        }
        for round in 0..ROUNDS {
            if me == 2 {
                std::thread::sleep(Duration::from_millis(100));
            }
            for &p in &peers {
                loop {
                    if rank.offer_credit(p) {
                        rank.send_reliable_granted(
                            p,
                            1,
                            &(me as u32, round),
                            RetryPolicy::Escalate,
                        );
                        break;
                    }
                    if let Some(env) = rank.drain_one(None, 1) {
                        note(me, env, rank, &mut pending, &mut last_round);
                    } else {
                        rank.wait_incoming(Duration::from_millis(2));
                    }
                }
            }
            loop {
                if peers.iter().all(|&p| pending.contains_key(&(p, round))) {
                    break;
                }
                let mut got = false;
                while let Some(env) = rank.drain_one(None, 1) {
                    note(me, env, rank, &mut pending, &mut last_round);
                    got = true;
                }
                if !got {
                    rank.wait_incoming(Duration::from_millis(2));
                }
            }
        }
        // Eventual completeness: every peer's every round was delivered
        // exactly once, regardless of how far anyone ran ahead.
        for &p in &peers {
            for r in 0..ROUNDS {
                assert!(
                    pending.contains_key(&(p, r)),
                    "rank {me}: missing (src {p}, round {r})"
                );
            }
        }
        pending.len()
    });
    for (r, n) in out.iter().enumerate() {
        assert_eq!(*n, peers_of(r).len() * ROUNDS as usize);
    }
}
