//! Tenant-isolation integration tests for dv-host: one tenant faulted
//! through dv-fault while fifteen clean neighbours record next to it
//! on the same shared blob store and commit pool.
//!
//! The contract under test is the host's blast-radius guarantee: a
//! degraded tenant degrades *alone*. Its neighbours see zero degraded
//! events, their commits all land, and (for a failure fault under
//! zeroed retry backoff, which keeps the shared sim clock's trajectory
//! identical) their restore fingerprints are byte-for-byte the ones
//! from an all-clean run. The faulted tenant's own failure must remain
//! visible, attributed to its label in the host's observability.

mod common;

use dejaview::Config;
use dv_fault::{sites, FaultPlan, IoFault};
use dv_host::{Host, HostConfig};
use dv_obs::names;
use dv_time::{Duration, SimClock};
use dv_vee::Prot;

const TENANTS: usize = 16;
const ROUNDS: u64 = 6;
const PAGES: u64 = 4;

/// Backoff each spiked commit pays on the pipeline's sleeper in the
/// latency-spike scenario.
const SPIKE_COST: Duration = Duration::from_millis(10);

fn session_config(fault: Option<IoFault>) -> Config {
    let mut config = Config {
        width: 64,
        height: 48,
        enable_display_recording: false,
        enable_text_capture: false,
        // Zero server-side retry backoff: every tenant shares the host
        // sim clock, and a faulted tenant's backoff would shift every
        // neighbour's capture timestamps, breaking the fingerprint
        // comparison against the clean run.
        io_retry_backoff: Duration::from_millis(0),
        ..Config::default()
    };
    if let Some(f) = fault {
        config.fault_plane = FaultPlan::new(common::seed_for("integration-host"))
            .always(sites::CHECKPOINT_WRITEBACK, f)
            .build();
    }
    config
}

fn pool_config(retry_backoff: Duration) -> HostConfig {
    HostConfig {
        commit_workers: 4,
        commit_retry_backoff: retry_backoff,
        ..HostConfig::default()
    }
}

/// Everything a run produces that the isolation assertions consume,
/// indexed by tenant slot (slot 0 is the faulted one when faulting).
struct RunOutcome {
    fingerprints: Vec<u64>,
    checkpoints: Vec<u64>,
    committed: Vec<u64>,
    async_commit_nanos: Vec<u64>,
    degraded: Vec<u64>,
}

/// Sixteen tenants record in lockstep rounds; tenant 0 optionally
/// carries `fault` on its checkpoint-writeback site.
fn run(fault: Option<IoFault>, pool: HostConfig) -> RunOutcome {
    let clock = SimClock::new();
    let mut host = Host::with_clock(pool, clock.clone());
    let ids: Vec<u64> = (0..TENANTS)
        .map(|slot| {
            let f = if slot == 0 { fault } else { None };
            host.create_session(&format!("t{slot:04}"), session_config(f))
        })
        .collect();
    let mut procs = Vec::with_capacity(TENANTS);
    for &id in &ids {
        let server = host.session_mut(id).expect("registered tenant");
        let vpid = server.vee_mut().spawn(None, "app").expect("spawn");
        let addr = server
            .vee_mut()
            .mmap(vpid, PAGES * 4096, Prot::ReadWrite)
            .expect("mmap");
        procs.push((vpid, addr));
    }
    for round in 0..ROUNDS {
        for (slot, &id) in ids.iter().enumerate() {
            let (vpid, addr) = procs[slot];
            for page in 0..PAGES {
                let fill = vec![
                    (round as u8)
                        .wrapping_mul(31)
                        .wrapping_add(slot as u8)
                        .wrapping_add(page as u8);
                    4096
                ];
                host.session_mut(id)
                    .expect("registered tenant")
                    .vee_mut()
                    .mem_write(vpid, addr + page * 4096, &fill)
                    .expect("mem_write");
            }
            if slot == 0 && fault.is_some() {
                // The faulted tenant's checkpoint may fail; that is the
                // degradation under test.
                let _ = host.checkpoint(id);
            } else {
                host.checkpoint(id).expect("clean tenant checkpoint");
            }
        }
        clock.advance(Duration::from_millis(100));
    }
    for (slot, &id) in ids.iter().enumerate() {
        if slot == 0 && fault.is_some() {
            let _ = host.flush_session(id);
        } else {
            host.flush_session(id).expect("clean tenant flush");
        }
    }
    let mut out = RunOutcome {
        fingerprints: Vec::new(),
        checkpoints: Vec::new(),
        committed: Vec::new(),
        async_commit_nanos: Vec::new(),
        degraded: Vec::new(),
    };
    for (slot, &id) in ids.iter().enumerate() {
        let obs = host.session(id).expect("registered tenant").obs();
        out.checkpoints.push(obs.counter(names::CHECKPOINT_COUNT));
        out.committed.push(obs.counter(names::CHECKPOINT_COMMITTED));
        out.async_commit_nanos
            .push(obs.counter(names::CHECKPOINT_ASYNC_COMMIT_NANOS));
        out.degraded.push(
            host.degraded_events(id).expect("registered tenant")
                + obs.counter(names::CHECKPOINT_WRITE_FAILURES),
        );
        let (vpid, addr) = procs[slot];
        let fp = if slot == 0 && fault.is_some() {
            // The faulted tenant's record is allowed to be partial (or
            // unreadable under Enospc); its fingerprint is not part of
            // the isolation contract.
            0
        } else {
            host.restore_fingerprint(id, &[(vpid, addr, (PAGES * 4096) as usize)])
                .expect("clean tenant fingerprint")
        };
        out.fingerprints.push(fp);
    }
    out
}

/// The shared neighbour-side assertions: no degradation leaked, every
/// neighbour's commits all landed.
fn assert_neighbors_clean(faulted: &RunOutcome) {
    for slot in 1..TENANTS {
        assert_eq!(
            faulted.degraded[slot], 0,
            "neighbour {slot} saw degraded events under a neighbour's fault"
        );
        assert_eq!(
            faulted.checkpoints[slot], ROUNDS,
            "neighbour {slot} lost checkpoints"
        );
        // Every capture commits through the tenant's lane, the ones
        // its session thread settled under backpressure included.
        assert_eq!(
            faulted.committed[slot], ROUNDS,
            "neighbour {slot}'s commits did not all land"
        );
    }
}

#[test]
fn enospc_tenant_degrades_alone() {
    let clean = run(None, pool_config(Duration::from_millis(0)));
    let faulted = run(Some(IoFault::Enospc), pool_config(Duration::from_millis(0)));

    assert_neighbors_clean(&faulted);
    assert!(
        faulted.degraded[0] > 0,
        "the Enospc plan never bit tenant 0"
    );
    // Under zeroed backoff the clean and faulted runs share one clock
    // trajectory, so every neighbour's record must be byte-identical.
    assert_eq!(
        &clean.fingerprints[1..],
        &faulted.fingerprints[1..],
        "a neighbour's restore fingerprint changed under tenant 0's fault"
    );
}

#[test]
fn enospc_failure_is_traced_under_the_tenant_label() {
    let clock = SimClock::new();
    let mut host = Host::with_clock(pool_config(Duration::from_millis(0)), clock.clone());
    let faulted = host.create_session("victim", session_config(Some(IoFault::Enospc)));
    let neighbor = host.create_session("bystander", session_config(None));
    for &id in &[faulted, neighbor] {
        let server = host.session_mut(id).expect("registered tenant");
        let vpid = server.vee_mut().spawn(None, "app").expect("spawn");
        let addr = server
            .vee_mut()
            .mmap(vpid, 4096, Prot::ReadWrite)
            .expect("mmap");
        server
            .vee_mut()
            .mem_write(vpid, addr, &[0x5A; 4096])
            .expect("mem_write");
    }
    let _ = host.checkpoint(faulted);
    host.checkpoint(neighbor).expect("clean checkpoint");
    let _ = host.flush_all();

    let obs = host.observability();
    let victim = obs
        .tenants
        .iter()
        .find(|(label, _)| label == "victim")
        .map(|(_, snap)| snap)
        .expect("victim registry present");
    let bystander = obs
        .tenants
        .iter()
        .find(|(label, _)| label == "bystander")
        .map(|(_, snap)| snap)
        .expect("bystander registry present");
    let victim_failures = victim.counter(names::CHECKPOINT_WRITE_FAILURES);
    assert!(
        victim_failures > 0 || !victim.events_named(names::EV_COMMIT_RETRY).is_empty(),
        "the victim's failure left no trace in its own registry"
    );
    assert_eq!(
        bystander.counter(names::CHECKPOINT_WRITE_FAILURES),
        0,
        "the bystander's registry absorbed the victim's failure"
    );
    // The rollup attributes exactly the victim's failures — host-level
    // aggregation never invents or drops a tenant's degradation.
    assert_eq!(
        obs.rollup.counter(names::CHECKPOINT_WRITE_FAILURES),
        victim_failures,
        "rollup write-failure count diverged from the victim's"
    );
}

#[test]
fn latency_spike_tenant_stalls_alone() {
    let faulted = run(Some(IoFault::LatencySpike), pool_config(SPIKE_COST));

    assert_neighbors_clean(&faulted);
    // A spike slows tenant 0 without failing it: everything the pool
    // accepted still commits.
    assert_eq!(faulted.committed[0], ROUNDS, "spiked tenant lost commits");
    assert_eq!(faulted.degraded[0], 0, "a spike is slow, not failed");
    // Each pooled commit of tenant 0 paid SPIKE_COST on the pipeline
    // sleeper, so its enqueue-to-resolve time reflects the stall.
    let spike_floor = SPIKE_COST.as_nanos() * faulted.committed[0];
    assert!(
        faulted.async_commit_nanos[0] >= spike_floor,
        "spiked tenant's commit latency {} below the injected stall {}",
        faulted.async_commit_nanos[0],
        spike_floor
    );
}

fn visual_config() -> Config {
    Config {
        width: 64,
        height: 48,
        enable_display_recording: true,
        enable_text_capture: false,
        index_shard_window: Duration::from_millis(1000),
        io_retry_backoff: Duration::from_millis(0),
        ..Config::default()
    }
}
// Per-grid-cell noise (4x3 tiles over 64x48 land one tile per
// fingerprint cell), so distinct seeds give far-apart scenes.
fn paint(server: &mut dejaview::DejaView, seed: u64) {
    for ty in 0..16u32 {
        for tx in 0..16u32 {
            let hash = seed
                .wrapping_add(((ty as u64) << 32) | tx as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let color = ((hash >> 40) & 0x00FF_FFFF) as u32;
            server
                .driver_mut()
                .fill_rect(dv_display::Rect::new(tx * 4, ty * 3, 4, 3), color);
        }
    }
}

/// Two controllers' sessions record distinct visual histories side by
/// side on one shared store; one is archived and revived as a third
/// branch. All three views must stay query-consistent: every
/// controller recalls its own scenes exactly (checkpoint-scoped and
/// live), neither sees the other's scenes despite the shared store,
/// and the revived branch answers `visual_at_checkpoint` identically
/// to its source at every counter — then pivots a hit back into
/// playback.
#[test]
fn visual_views_agree_across_controllers_and_a_revived_branch() {
    let clock = SimClock::new();
    let mut host = Host::with_clock(pool_config(Duration::from_millis(0)), clock.clone());
    let alpha = host.create_session("ctrl-alpha", visual_config());
    let beta = host.create_session("ctrl-beta", visual_config());

    let rounds = 4u64;
    let mut counters = Vec::new();
    let mut alpha_probes = Vec::new();
    let mut beta_probes = Vec::new();
    for round in 0..rounds {
        // Past the strip window before each keyframe, so the
        // checkpoint that follows seals exactly this round.
        clock.advance(Duration::from_millis(1100));
        let t = dv_time::Timestamp::from_millis((round + 1) * 1100);
        for (&id, salt, probes) in [
            (&alpha, 0u64, &mut alpha_probes),
            (&beta, 1000, &mut beta_probes),
        ] {
            let server = host.session_mut(id).expect("registered tenant");
            paint(server, round + 1 + salt);
            server.force_keyframe();
            probes.push(server.browse(t).expect("recorded screen"));
        }
        counters.push(host.checkpoint(alpha).expect("alpha checkpoint").counter);
        host.checkpoint(beta).expect("beta checkpoint");
    }

    // Each controller recalls its own scenes at distance 0, and never
    // the other's — the shared store does not bleed across prefixes.
    let view = |server: &dejaview::DejaView, c: u64, probes: &[dv_display::Screenshot]| {
        probes
            .iter()
            .map(|shot| {
                server
                    .visual_at_checkpoint(c, shot, rounds as usize)
                    .expect("scoped visual query")
                    .into_iter()
                    .map(|h| (h.id, h.distance, h.first, h.last))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    for own in [alpha, beta] {
        let own_probes = if own == alpha {
            &alpha_probes
        } else {
            &beta_probes
        };
        let other_probes = if own == alpha {
            &beta_probes
        } else {
            &alpha_probes
        };
        let server = host.session(own).expect("registered tenant");
        for shot in own_probes {
            let hits = server.visual_hits(shot, 1).expect("visual query");
            assert_eq!(hits[0].distance, 0, "a controller lost its own scene");
        }
        for shot in other_probes {
            let hits = server.visual_hits(shot, 1).expect("visual query");
            assert_ne!(
                hits[0].distance, 0,
                "a controller recalled its neighbour's scene"
            );
        }
    }

    // Archive alpha and revive it as a third branch.
    let mut expect_at = Vec::new();
    {
        let server = host.session(alpha).expect("registered tenant");
        for &c in &counters {
            expect_at.push(view(server, c, &alpha_probes));
        }
    }
    let archive = host
        .session_mut(alpha)
        .expect("registered tenant")
        .save_archive()
        .expect("archive");
    let mut branch = dejaview::DejaView::load_archive(
        Config {
            blob_prefix: Some("ctrl-alpha".to_string()),
            ..visual_config()
        },
        &archive,
    )
    .expect("revive branch");

    // The branch's checkpoint-scoped views are byte-identical to the
    // source controller's, at every counter: each checkpoint sees
    // exactly its own round and the earlier ones.
    for (i, &c) in counters.iter().enumerate() {
        let got = view(&branch, c, &alpha_probes);
        assert_eq!(got, expect_at[i], "branch diverged at checkpoint {c}");
        for (j, hits) in got.iter().enumerate() {
            let exact = hits.iter().any(|&(_, d, ..)| d == 0);
            assert_eq!(
                exact,
                j <= i,
                "checkpoint {c} visibility wrong for round {j}"
            );
        }
    }

    // And the branch pivots a hit straight back into playback: the
    // reconstructed screen is the recorded one.
    let hit = branch
        .visual_hits(&alpha_probes[1], 1)
        .expect("branch query")
        .remove(0);
    assert_eq!(hit.distance, 0);
    let (entry, screen) = branch.visual_pivot(&hit).expect("pivot");
    assert!(entry.time <= hit.last);
    assert_eq!(
        screen.content_hash(),
        alpha_probes[1].content_hash(),
        "pivot reconstructed a different screen"
    );
}

/// Strips share the text shards' lifecycle: a host compaction round
/// merges them without changing any answer, the merged-away strips
/// stay revivable until the next seal makes a manifest naming their
/// replacement durable, and then every checkpoint below that seal —
/// manifests included — ages out of the store.
#[test]
fn strips_compact_and_age_out_like_text_shards() {
    let clock = SimClock::new();
    let mut host = Host::with_clock(pool_config(Duration::from_millis(0)), clock.clone());
    let id = host.create_session("strips", visual_config());
    let round = |host: &mut Host, seed: u64| {
        clock.advance(Duration::from_millis(1100));
        let server = host.session_mut(id).expect("registered tenant");
        paint(server, seed);
        server.force_keyframe();
        let probe = server.browse(server.now()).expect("recorded screen");
        (host.checkpoint(id).expect("checkpoint").counter, probe)
    };
    let (counters, probes): (Vec<u64>, Vec<_>) = (1..=4).map(|seed| round(&mut host, seed)).unzip();
    let vidx = host.session(id).expect("registered tenant").vidx().unwrap();
    assert_eq!(vidx.stats().live_segments, 4, "one strip per checkpoint");

    assert_eq!(host.compact_round(), 1);
    host.flush_session(id).expect("aux lane drained");
    assert_eq!(vidx.stats().live_segments, 1, "a full batch merged");
    let old = counters[1];
    for probe in &probes {
        let hits = vidx.query(probe, 3).expect("query");
        assert_eq!(hits[0].distance, 0);
        assert_eq!(hits, vidx.query_linear(probe, 3).expect("oracle"));
    }
    let kept = vidx.query_at(old, &probes[1], 1).expect("inputs kept");
    assert_eq!(kept[0].distance, 0);

    let (newest, _) = round(&mut host, 5);
    assert_eq!(
        vidx.query_at(old, &probes[1], 4),
        Err(dv_lsfs::SegmentError::OutOfRetention {
            requested: old,
            oldest: newest
        })
    );
    assert_eq!(
        vidx.query_at(newest, &probes[1], 1),
        Ok(kept),
        "the floor serves"
    );
    let manifests: Vec<String> = host.store().with(|s| s.names());
    let manifests: Vec<&String> = manifests
        .iter()
        .filter(|n| n.contains("vidxman-"))
        .collect();
    assert_eq!(manifests, [&format!("strips.vidxman-{newest:08}")]);
}
