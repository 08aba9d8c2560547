//! Property: [`Dataset::assemble`] — one k-way merge over every sink's
//! sorted runs — is observationally identical to the reference hash join
//! (`support::join_reference`) on every input: well-formed engine output,
//! shuffled replays, aborted sessions and malformed streams alike, with
//! the records split across any number of sinks.
//!
//! Equivalence means Ok for Ok with the same dataset bytes, and Err for
//! Err with the same [`JoinError`]. Each faulted case injects one
//! violation: with several, the two may legitimately detect a different
//! one first.

mod support;

use proptest::prelude::*;
use streamlab_telemetry::records::{CdnChunkRecord, PlayerChunkRecord, SessionMeta};
use streamlab_telemetry::{Dataset, TelemetrySink};
use support::{cdn, join_reference, meta, mix, player};

/// Deal the record streams round-robin by position over `n` sinks, so
/// the halves of one chunk can land in different sinks whenever the
/// streams are not aligned.
fn dealt_sinks(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
    n: usize,
) -> Vec<TelemetrySink> {
    let mut sinks: Vec<TelemetrySink> = (0..n).map(|_| TelemetrySink::new()).collect();
    for (i, m) in metas.iter().enumerate() {
        sinks[i % n].session(m.clone());
    }
    for (i, p) in players.iter().enumerate() {
        sinks[i % n].player_chunk(p.clone());
    }
    for (i, c) in cdns.iter().enumerate() {
        sinks[i % n].cdn_chunk(c.clone());
    }
    sinks
}

/// Assert `assemble` over `n` sinks ≡ `join_reference` on the same
/// records. Datasets are compared via their serialized form (full
/// structural equality, no hand-picked fields); errors must match
/// exactly.
fn assert_equivalent(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
    n: usize,
) {
    let merged = Dataset::assemble(dealt_sinks(metas, players, cdns, n));
    let reference = join_reference(metas, players, cdns);
    match (merged, reference) {
        (Ok(f), Ok(r)) => {
            let fj = serde_json::to_string(&f).expect("serialize");
            let rj = serde_json::to_string(&r).expect("serialize");
            assert_eq!(fj, rj, "datasets diverge");
        }
        (Err(f), Err(r)) => assert_eq!(f, r, "errors diverge"),
        (f, r) => panic!(
            "outcomes diverge: assemble={:?} reference={:?}",
            f.map(|d| d.sessions.len()),
            r.map(|d| d.sessions.len())
        ),
    }
}

proptest! {
    /// Engine-shaped emission (adjacent player/CDN pushes, contiguous
    /// chunk ids, dense session ids).
    /// Aborted sessions truncate the chunk stream mid-session, exactly
    /// like an abandoned player: still contiguous from zero, just short.
    #[test]
    fn engine_shaped_streams_match_reference(
        sessions in proptest::collection::vec((0u32..15, any::<bool>()), 1..30),
        sinks in 1usize..4,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (id, &(chunks, aborted)) in sessions.iter().enumerate() {
            let id = id as u64;
            metas.push(meta(id));
            let n = if aborted { chunks / 2 } else { chunks };
            for c in 0..n {
                players.push(player(id, c));
                cdns.push(cdn(id, c));
            }
        }
        assert_equivalent(&metas, &players, &cdns, sinks);
    }

    /// Out-of-order replays: the same records arriving shuffled (players
    /// and CDN streams shuffled independently) must still produce the
    /// identical dataset: each arena sorts its halves, and halves dealt to
    /// different sinks meet in the merge.
    #[test]
    fn shuffled_streams_match_reference(
        sessions in proptest::collection::vec(1u32..10, 1..20),
        pseed in any::<u64>(),
        cseed in any::<u64>(),
        sinks in 1usize..4,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (id, &chunks) in sessions.iter().enumerate() {
            let id = id as u64;
            metas.push(meta(id));
            for c in 0..chunks {
                players.push(player(id, c));
                cdns.push(cdn(id, c));
            }
        }
        mix(&mut players, pseed);
        mix(&mut cdns, cseed);
        assert_equivalent(&metas, &players, &cdns, sinks);
    }

    /// Faulted streams — dropped CDN records, dropped metadata, duplicated
    /// records — must fail identically through both joins; sparse
    /// session-id spaces must join identically.
    #[test]
    fn faulted_streams_match_reference(
        sessions in proptest::collection::vec(1u32..8, 1..12),
        fault in 0u8..5,
        pick in any::<u64>(),
        stride in 1u64..1000,
        sinks in 1usize..4,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (i, &chunks) in sessions.iter().enumerate() {
            let id = i as u64 * stride;
            metas.push(meta(id));
            for c in 0..chunks {
                players.push(player(id, c));
                cdns.push(cdn(id, c));
            }
        }
        match fault {
            0 => { // drop a CDN record: orphan player
                let i = (pick % cdns.len() as u64) as usize;
                cdns.remove(i);
            }
            1 => { // drop a session's metadata
                let i = (pick % metas.len() as u64) as usize;
                metas.remove(i);
            }
            2 => { // duplicate a CDN record
                let i = (pick % cdns.len() as u64) as usize;
                let dup = cdns[i].clone();
                cdns.push(dup);
            }
            3 => { // duplicate a player record
                let i = (pick % players.len() as u64) as usize;
                let dup = players[i].clone();
                players.push(dup);
            }
            _ => {} // sparse ids alone
        }
        assert_equivalent(&metas, &players, &cdns, sinks);
    }
}
