//! dv-host: a multi-tenant session host.
//!
//! DejaView (SOSP 2007) records one user's desktop; the fleet-scale
//! deployment the ROADMAP targets packs thousands of recorded sessions
//! onto one node. This crate is that packing layer: a [`Host`] owns a
//! **session registry** of independent [`dejaview::DejaView`] servers —
//! each tenant keeps its own display, record, checkpoint, and file
//! system state — while two resources become host-wide and shared:
//!
//! * the **blob store**: one [`dv_lsfs::SharedBlobStore`] holds every
//!   tenant's checkpoint blobs, namespaced by a per-tenant blob prefix
//!   so counters can never collide;
//! * the **commit pool**: one [`dv_checkpoint::CommitPipeline`] serves
//!   every tenant's checkpoint commits — the tenant's own session and
//!   every session revived from it, one *lane* each, opened when the
//!   engine is built and closed when it is dropped — scheduled
//!   round-robin so a slow or faulted tenant cannot monopolize the
//!   workers. Index compaction
//!   ([`Host::compact_round`]) rides the same lanes as aux tasks.
//!
//! Isolation is the contract: each tenant carries its own
//! [`dv_fault::FaultPlane`] and [`dv_obs::Obs`] handle, its commit lane
//! has its own ordering, failure set, and queue-depth quota (the
//! tenant config's `engine.commit_queue_depth`), and fault-induced
//! degradation is confined to the tenant that caused it. The host's
//! own registry records `host.*` lifecycle metrics;
//! [`Host::observability`] returns per-tenant snapshots plus a
//! host-level rollup built with [`dv_obs::ObsSnapshot::merge`].

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use dejaview::{Config, DejaView, ServerError};
use dv_checkpoint::{CheckpointReport, CommitPipeline, PipelineConfig};
use dv_display::Screenshot;
use dv_index::{parse_query, RankOrder, SearchHit};
use dv_lsfs::{CasGcStep, CasStats, FsError, SharedBlobStore};
use dv_obs::{names, Obs, ObsSnapshot};
use dv_time::{Duration, SimClock, Sleeper};
use dv_vee::Vpid;
use dv_vidx::VisualHit;

/// Host-wide configuration: the shared commit pool and the store.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Worker threads in the shared commit pool; with `0` each
    /// tenant's session thread runs its own commits and compactions.
    pub commit_workers: usize,
    /// Store-write retries per commit before a commit fails.
    pub commit_retry_limit: u32,
    /// Backoff before the first commit retry; doubles per attempt.
    pub commit_retry_backoff: Duration,
    /// Whether checkpoint images are compressed (the pool's setting;
    /// a tenant config's `engine.compress` is unused).
    pub compress: bool,
    /// Whether the shared blob store dedups through the `dv-cas`
    /// content-addressed chunk store. Tenant-visible semantics are
    /// unchanged, but the host's physical footprint
    /// ([`Host::storage_physical_bytes`]) shrinks by whatever
    /// redundancy exists across checkpoints and tenants.
    pub dedup: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            commit_workers: 2,
            commit_retry_limit: 3,
            commit_retry_backoff: Duration::from_millis(50),
            compress: true,
            dedup: true,
        }
    }
}

/// Why a host operation failed.
#[derive(Debug)]
pub enum HostError {
    /// No tenant with this id is registered.
    UnknownTenant(u64),
    /// The tenant's own server failed the operation.
    Server(ServerError),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            HostError::Server(e) => write!(f, "tenant server error: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<ServerError> for HostError {
    fn from(e: ServerError) -> Self {
        HostError::Server(e)
    }
}

/// One hit of a cross-session query, tagged with the tenant whose
/// record produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cross<H> {
    /// Tenant id.
    pub tenant: u64,
    /// Tenant label.
    pub label: String,
    /// The tenant's own hit (times are on the shared host clock).
    pub hit: H,
}

/// Which tenant's record satisfied a text query, and when.
pub type CrossHit = Cross<SearchHit>;

/// Which tenant's record looked like a visual probe, and when.
pub type CrossVisualHit = Cross<VisualHit>;

/// One registered session and its host-side bookkeeping.
struct Tenant {
    label: String,
    server: DejaView,
    obs: Obs,
}

/// Per-tenant observability snapshot plus the host-level rollup.
pub struct HostObservability {
    /// The host's own registry (`host.*` lifecycle metrics).
    pub host: ObsSnapshot,
    /// The host registry merged with every tenant's, in tenant-id
    /// order ([`ObsSnapshot::merge`] is associative, so this equals any
    /// re-association of the same fold).
    pub rollup: ObsSnapshot,
    /// `(label, snapshot)` per tenant, in tenant-id order.
    pub tenants: Vec<(String, ObsSnapshot)>,
}

impl HostObservability {
    /// Renders the rollup plus the per-tenant breakdown as
    /// deterministic JSON: `BTreeMap`-ordered maps inside each
    /// snapshot, tenants in id order. Two runs performing the same
    /// operations produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"rollup\": ");
        out.push_str(&self.rollup.to_json());
        out.push_str(",\n\"host\": ");
        out.push_str(&self.host.to_json());
        out.push_str(",\n\"tenants\": {");
        for (i, (label, snap)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n\"");
            out.push_str(&dv_obs::escape_json(label));
            out.push_str("\": ");
            out.push_str(&snap.to_json());
        }
        out.push_str(if self.tenants.is_empty() {
            "}\n}\n"
        } else {
            "\n}\n}\n"
        });
        out
    }
}

/// A multi-tenant session host: the session registry plus the shared
/// blob store and the shared, fairly scheduled commit pool.
pub struct Host {
    clock: SimClock,
    /// The shared commit pool; it names the shared store.
    pool: Arc<CommitPipeline>,
    tenants: BTreeMap<u64, Tenant>,
    next_tenant: u64,
    obs: Obs,
    /// Which tenant leads the next background-compaction round.
    compact_cursor: u64,
}

impl Host {
    /// Creates a host with its own clock.
    pub fn new(config: HostConfig) -> Self {
        Host::with_clock(config, SimClock::new())
    }

    /// Creates a host over an existing clock (shared with the workload
    /// driver). Every tenant session runs on this clock, and the commit
    /// pool's retry backoff and latency costs advance it, so host runs
    /// are deterministic end to end.
    pub fn with_clock(config: HostConfig, clock: SimClock) -> Self {
        let obs = Obs::new(clock.shared());
        let store = if config.dedup {
            SharedBlobStore::in_memory_deduped()
        } else {
            SharedBlobStore::in_memory()
        };
        // The shared store reports into the host registry, so `cas.*`
        // dedup gauges and GC histograms land in the host rollup.
        store.with(|s| s.set_obs(obs.clone()));
        let pool = Arc::new(CommitPipeline::new(
            PipelineConfig {
                workers: config.commit_workers,
                retry_limit: config.commit_retry_limit,
                retry_backoff: config.commit_retry_backoff,
                compress: config.compress,
            },
            store,
            Sleeper::Sim(clock.clone()),
        ));
        Host {
            obs,
            clock,
            pool,
            tenants: BTreeMap::new(),
            next_tenant: 1,
            compact_cursor: 0,
        }
    }

    /// Returns the shared blob store every tenant records into.
    pub fn store(&self) -> SharedBlobStore {
        self.pool.store().clone()
    }

    /// Bytes physically resident in the shared store — under dedup,
    /// the chunk arena; otherwise the sum of blob lengths. This is the
    /// number the host reports for capacity planning.
    pub fn storage_physical_bytes(&self) -> u64 {
        self.pool.store().with(|s| match s.cas_stats() {
            Some(cas) => cas.physical_bytes,
            None => s
                .names()
                .iter()
                .filter_map(|n| s.get(n))
                .map(|b| b.len() as u64)
                .sum(),
        })
    }

    /// Sum of the logical lengths of every blob in the shared store.
    pub fn storage_logical_bytes(&self) -> u64 {
        self.pool.store().with(|s| match s.cas_stats() {
            Some(cas) => cas.logical_bytes,
            None => s
                .names()
                .iter()
                .filter_map(|n| s.get(n))
                .map(|b| b.len() as u64)
                .sum(),
        })
    }

    /// Statistics of the shared store's content-addressed layer
    /// (`None` when [`HostConfig::dedup`] is off).
    pub fn storage_cas_stats(&self) -> Option<CasStats> {
        self.pool.store().with(|s| s.cas_stats())
    }

    /// Runs one storage GC round: persists the chunk-store metadata
    /// root (the durability point that makes retired chunks eligible
    /// for reclaim), then sweeps them in `batch`-bounded steps. The
    /// store lock is released between batches, so tenant checkpoints
    /// and commit workers interleave with the sweep — GC never stops
    /// writes. Errors with [`FsError::Unsupported`] when dedup is off.
    pub fn storage_gc(&self, batch: usize) -> Result<CasGcStep, FsError> {
        self.pool.store().with(|s| s.cas_persist_root())?;
        let (step, err) = self.pool.store().gc_sweep(batch);
        match err {
            Some(e) => Err(e),
            None => Ok(step),
        }
    }

    /// Registered tenant ids, in creation order.
    fn tenant_ids(&self) -> Vec<u64> {
        self.tenants.keys().copied().collect()
    }

    /// A tenant's label.
    pub fn tenant_label(&self, id: u64) -> Option<&str> {
        self.tenants.get(&id).map(|t| t.label.as_str())
    }

    /// Creates a session: a full [`DejaView`] server on the host clock,
    /// recording into the shared store under `label` as its blob
    /// prefix, with its commits — and those of sessions revived from
    /// it — flowing through the shared pool on lanes of their own. The
    /// caller's `config` keeps its per-tenant knobs (fault plane,
    /// policy, recorder, the lanes' queue depth); the pool's knobs are
    /// the host's. The host sets the blob prefix, installs a per-tenant
    /// observability handle if the config's is disabled. Returns the
    /// tenant id.
    pub fn create_session(&mut self, label: &str, mut config: Config) -> u64 {
        let id = self.next_tenant;
        self.next_tenant += 1;
        let obs = if config.obs.is_enabled() {
            config.obs.clone()
        } else {
            Obs::new(self.clock.shared())
        };
        config.obs = obs.clone();
        config.blob_prefix = Some(label.to_string());
        let server = DejaView::with_pool(config, self.clock.clone(), self.pool.clone());
        self.tenants.insert(
            id,
            Tenant {
                label: label.to_string(),
                server,
                obs,
            },
        );
        self.obs.incr(names::HOST_SESSIONS_CREATED);
        self.obs
            .gauge_set(names::HOST_SESSIONS, self.tenants.len() as u64);
        self.obs.event(
            "host",
            names::EV_HOST_SESSION,
            format!("tenant={label} id={id} created"),
        );
        id
    }

    /// Drops a session and unregisters the tenant. Its engines — its
    /// own and its revived sessions' — settle and close their commit
    /// lanes as they are dropped. The tenant's blobs stay in the shared
    /// store (the record outlives the live session).
    pub fn drop_session(&mut self, id: u64) -> Result<(), HostError> {
        let tenant = self
            .tenants
            .remove(&id)
            .ok_or(HostError::UnknownTenant(id))?;
        drop(tenant.server);
        self.obs.incr(names::HOST_SESSIONS_DROPPED);
        self.obs
            .gauge_set(names::HOST_SESSIONS, self.tenants.len() as u64);
        self.obs.event(
            "host",
            names::EV_HOST_SESSION,
            format!("tenant={} id={id} dropped", tenant.label),
        );
        Ok(())
    }

    /// Borrows a tenant's server.
    pub fn session(&self, id: u64) -> Result<&DejaView, HostError> {
        self.tenants
            .get(&id)
            .map(|t| &t.server)
            .ok_or(HostError::UnknownTenant(id))
    }

    /// Borrows a tenant's server mutably (to drive its workload).
    pub fn session_mut(&mut self, id: u64) -> Result<&mut DejaView, HostError> {
        self.tenants
            .get_mut(&id)
            .map(|t| &mut t.server)
            .ok_or(HostError::UnknownTenant(id))
    }

    /// Takes a checkpoint of one tenant through the shared pool.
    pub fn checkpoint(&mut self, id: u64) -> Result<CheckpointReport, HostError> {
        let tenant = self
            .tenants
            .get_mut(&id)
            .ok_or(HostError::UnknownTenant(id))?;
        tenant.server.checkpoint_now().map_err(HostError::Server)
    }

    /// Drains one tenant's lane of the shared pool, surfacing its
    /// first asynchronous commit failure (counted as a degradation on
    /// the *tenant's* registry, never a neighbour's).
    pub fn flush_session(&mut self, id: u64) -> Result<(), HostError> {
        let tenant = self
            .tenants
            .get_mut(&id)
            .ok_or(HostError::UnknownTenant(id))?;
        tenant.server.flush_checkpoints().map_err(HostError::Server)
    }

    /// Drains every tenant's lane. Per-tenant failures are returned in
    /// tenant-id order; a failing tenant never blocks the rest of the
    /// round.
    pub fn flush_all(&mut self) -> Vec<(u64, HostError)> {
        let ids = self.tenant_ids();
        let mut failures = Vec::new();
        for id in ids {
            if let Err(e) = self.flush_session(id) {
                failures.push((id, e));
            }
        }
        failures
    }

    /// Asks every tenant in id order and tags what comes back. `ask`
    /// answers `None` for a tenant without the index in question; a
    /// tenant whose query fails (e.g. a corrupt sealed segment)
    /// degrades alone: its hits are skipped, everyone else's return.
    fn fan_out<H>(
        &mut self,
        what: &str,
        mut ask: impl FnMut(&mut DejaView) -> Option<Result<Vec<H>, ServerError>>,
    ) -> Vec<Cross<H>> {
        let mut merged = Vec::new();
        for (&id, tenant) in self.tenants.iter_mut() {
            match ask(&mut tenant.server) {
                None => {}
                Some(Ok(hits)) => merged.extend(hits.into_iter().map(|hit| Cross {
                    tenant: id,
                    label: tenant.label.clone(),
                    hit,
                })),
                Some(Err(e)) => self.obs.event(
                    "host",
                    names::EV_HOST_SESSION,
                    format!("tenant={} {what} error={e:?}", tenant.label),
                ),
            }
        }
        merged
    }

    /// Evaluates one query against **every** tenant's record — the
    /// fleet-scale "which of my sessions saw this?" operation. The
    /// query is parsed once; each tenant's sharded engine evaluates it
    /// independently; then the tagged hits are merged by **global
    /// rank** under `order` and truncated to `limit`. Tenants without
    /// text capture contribute nothing.
    pub fn search_all(
        &mut self,
        query: &str,
        order: RankOrder,
        limit: usize,
    ) -> Result<Vec<CrossHit>, HostError> {
        let query = parse_query(query).map_err(|e| HostError::Server(ServerError::Query(e)))?;
        let mut merged = self.fan_out("cross-query", |dv| {
            dv.tidx().map(|_| dv.search_hits(&query, order))
        });
        dv_index::rank_by(&mut merged, order, |c| &c.hit);
        merged.truncate(limit);
        self.obs.incr(names::HOST_CROSS_QUERIES);
        Ok(merged)
    }

    /// Evaluates one visual probe against **every** tenant's thumbnail
    /// strip — "which of my sessions ever looked like this?". Each
    /// tenant's dv-vidx engine answers independently (oracle-exact,
    /// sub-linear); the tagged hits are merged by global distance,
    /// most-recent-first among ties, then tenant id and newest
    /// instance as the deterministic tie-breaks, and truncated to `k`.
    /// Tenants with the visual index disabled contribute nothing.
    pub fn visual_all(&mut self, probe: &Screenshot, k: usize) -> Vec<CrossVisualHit> {
        use std::cmp::Reverse;
        let mut merged = self.fan_out("visual-query", |dv| {
            dv.vidx().map(|_| dv.visual_hits(probe, k))
        });
        merged.sort_by_key(|c| {
            (
                c.hit.distance,
                Reverse(c.hit.last),
                c.tenant,
                Reverse(c.hit.id),
            )
        });
        merged.truncate(k);
        self.obs.incr(names::HOST_VISUAL_QUERIES);
        merged
    }

    /// One fair background-compaction round: walks tenants from a
    /// rotating cursor and schedules each tenant's text-segment and
    /// strip compaction as an **aux task on that tenant's commit
    /// lane** of the shared worker pool — compaction shares the pool's
    /// fair schedule with checkpoint commits but consumes no capture
    /// quota, so it can never block ingest. A pool without workers
    /// runs each task on this thread as it is submitted. Returns how
    /// many tenants had a compaction scheduled.
    pub fn compact_round(&mut self) -> usize {
        let ids = self.tenant_ids();
        if ids.is_empty() {
            return 0;
        }
        let start = (self.compact_cursor as usize) % ids.len();
        self.compact_cursor = self.compact_cursor.wrapping_add(1);
        let mut scheduled = 0;
        for off in 0..ids.len() {
            let id = ids[(start + off) % ids.len()];
            let tenant = &self.tenants[&id];
            let (text, strips) = (tenant.server.tidx(), tenant.server.vidx());
            if text.is_none() && strips.is_none() {
                continue;
            }
            // A compaction failure leaves the inputs authoritative and
            // is counted and traced in the tenant's own registry
            // (`tidx.compact_failures`, `vidx.compact_failures`).
            let compact = move || {
                let _ = text.map(|e| e.maybe_compact());
                let _ = strips.map(|e| e.maybe_compact());
            };
            if self.pool.submit_aux(tenant.server.engine().lane(), compact) {
                scheduled += 1;
            }
        }
        self.obs.incr(names::HOST_COMPACTION_ROUNDS);
        scheduled
    }

    /// A tenant's degradation count (failed checkpoint attempts and
    /// index flushes), read from its own registry.
    pub fn degraded_events(&self, id: u64) -> Result<u64, HostError> {
        self.tenants
            .get(&id)
            .map(|t| t.server.degraded_events())
            .ok_or(HostError::UnknownTenant(id))
    }

    /// Fingerprints a tenant's committed checkpoint history and the
    /// state revived from its final checkpoint, once its lane has
    /// settled ([`dv_checkpoint::restore_fingerprint`]). Two runs that
    /// recorded the same tenant activity at the same session times
    /// produce the same fingerprint — the oracle equality the
    /// isolation tests assert.
    pub fn restore_fingerprint(
        &mut self,
        id: u64,
        regions: &[(Vpid, u64, usize)],
    ) -> Result<u64, HostError> {
        // Settle the lane first so the fingerprint covers every commit.
        let _ = self.flush_session(id);
        let tenant = self.tenants.get(&id).ok_or(HostError::UnknownTenant(id))?;
        dv_checkpoint::restore_fingerprint(
            tenant.server.engine(),
            &mut self.pool.store().lock(),
            regions,
        )
        .map(|(fingerprint, _)| fingerprint)
        .map_err(|e| HostError::Server(e.into()))
    }

    /// Snapshots observability across the host: the host's own
    /// registry, each tenant's registry (labelled, in id order), and
    /// the rollup merge of all of them.
    pub fn observability(&self) -> HostObservability {
        let host = self.obs.snapshot();
        let tenants: Vec<(String, ObsSnapshot)> = self
            .tenants
            .values()
            .map(|t| (t.label.clone(), t.obs.snapshot()))
            .collect();
        let mut rollup = host.clone();
        for (_, snap) in &tenants {
            rollup.merge(snap);
        }
        HostObservability {
            host,
            rollup,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_vee::Prot;

    fn tiny_config() -> Config {
        Config {
            width: 64,
            height: 48,
            enable_display_recording: false,
            enable_text_capture: false,
            ..Config::default()
        }
    }

    fn dirty_and_checkpoint(host: &mut Host, id: u64, rounds: u64) -> (Vpid, u64) {
        let (p, addr) = {
            let server = host.session_mut(id).unwrap();
            let p = server.vee_mut().spawn(None, "app").unwrap();
            let addr = server.vee_mut().mmap(p, 4 * 4096, Prot::ReadWrite).unwrap();
            (p, addr)
        };
        for round in 0..rounds {
            let fill = vec![(round as u8).wrapping_add(id as u8); 4096];
            host.session_mut(id)
                .unwrap()
                .vee_mut()
                .mem_write(p, addr + (round % 4) * 4096, &fill)
                .unwrap();
            host.checkpoint(id).unwrap();
        }
        (p, addr)
    }

    #[test]
    fn tenants_share_one_store_without_collisions() {
        let mut host = Host::new(HostConfig::default());
        let a = host.create_session("tenant-a", tiny_config());
        let b = host.create_session("tenant-b", tiny_config());
        dirty_and_checkpoint(&mut host, a, 3);
        dirty_and_checkpoint(&mut host, b, 3);
        assert!(host.flush_all().is_empty());
        let store = host.store();
        for tenant in ["tenant-a", "tenant-b"] {
            for c in 1..=3u64 {
                assert!(
                    store.lock().contains(&format!("{tenant}-{c:08}")),
                    "{tenant} counter {c} blob present"
                );
            }
        }
        for id in [a, b] {
            let obs = host.session(id).unwrap().obs();
            assert_eq!(obs.counter(names::CHECKPOINT_COMMITTED), 3);
        }
    }

    #[test]
    fn similar_tenants_dedup_physical_storage() {
        // Tenants write *identical* page content (fills keyed by round
        // only), so their checkpoint images are chunk-for-chunk alike.
        let run = |dedup: bool| {
            let mut host = Host::new(HostConfig {
                dedup,
                compress: false,
                ..HostConfig::default()
            });
            let ids: Vec<u64> = (0..4)
                .map(|i| host.create_session(&format!("t{i}"), tiny_config()))
                .collect();
            for &id in &ids {
                let (p, addr) = {
                    let server = host.session_mut(id).unwrap();
                    let p = server.vee_mut().spawn(None, "app").unwrap();
                    let addr = server.vee_mut().mmap(p, 4 * 4096, Prot::ReadWrite).unwrap();
                    (p, addr)
                };
                for round in 0..3u64 {
                    let fill: Vec<u8> = (0..4096).map(|i| (i as u8) ^ (round as u8)).collect();
                    host.session_mut(id)
                        .unwrap()
                        .vee_mut()
                        .mem_write(p, addr + (round % 4) * 4096, &fill)
                        .unwrap();
                    host.checkpoint(id).unwrap();
                }
            }
            assert!(host.flush_all().is_empty());
            host
        };
        let deduped = run(true);
        let physical = deduped.storage_physical_bytes();
        let logical = deduped.storage_logical_bytes();
        assert!(
            physical * 2 < logical,
            "4 identical tenants must dedup >=2x: physical={physical} logical={logical}"
        );
        let cas = deduped.storage_cas_stats().unwrap();
        assert!(cas.dedup_hits > 0);
        // Logical bytes are mode-independent: a plain host stores the
        // same logical state.
        let plain = run(false);
        assert!(plain.storage_cas_stats().is_none());
        assert_eq!(plain.storage_logical_bytes(), logical);
        // And the cas gauges surface in the host rollup.
        let obs = deduped.observability();
        assert_eq!(
            obs.rollup.gauge(dv_obs::names::CAS_PHYSICAL_BYTES),
            physical
        );
    }

    #[test]
    fn storage_gc_reclaims_deleted_tenant_blobs() {
        let mut host = Host::new(HostConfig::default());
        let a = host.create_session("doomed", tiny_config());
        dirty_and_checkpoint(&mut host, a, 3);
        assert!(host.flush_all().is_empty());
        host.drop_session(a).unwrap();
        let names: Vec<String> = host.store().with(|s| s.names());
        for name in &names {
            host.store().with(|s| s.delete(name));
        }
        let step = host.storage_gc(8).unwrap();
        assert!(step.reclaimed_chunks > 0, "dropped blobs must be swept");
        assert_eq!(host.storage_physical_bytes(), 0);
        assert!(host.storage_gc(8).unwrap().reclaimed_chunks == 0);
    }

    #[test]
    fn dropped_session_keeps_its_blobs() {
        let mut host = Host::new(HostConfig::default());
        let a = host.create_session("gone", tiny_config());
        dirty_and_checkpoint(&mut host, a, 2);
        host.drop_session(a).unwrap();
        assert!(host.session(a).is_err());
        assert!(host.store().lock().contains("gone-00000001"));
        let snap = host.obs.snapshot();
        assert_eq!(snap.counter(names::HOST_SESSIONS_DROPPED), 1);
        assert_eq!(snap.gauge(names::HOST_SESSIONS), 0);
    }

    #[test]
    fn rollup_merges_host_and_tenant_registries() {
        let mut host = Host::new(HostConfig::default());
        let a = host.create_session("a", tiny_config());
        dirty_and_checkpoint(&mut host, a, 2);
        assert!(host.flush_all().is_empty());
        let obs = host.observability();
        assert_eq!(obs.tenants.len(), 1);
        let tenant_ckpts = obs.tenants[0].1.counter(names::CHECKPOINT_COUNT);
        assert_eq!(tenant_ckpts, 2);
        assert_eq!(obs.rollup.counter(names::CHECKPOINT_COUNT), tenant_ckpts);
        assert_eq!(
            obs.rollup.counter(names::HOST_SESSIONS_CREATED),
            obs.host.counter(names::HOST_SESSIONS_CREATED)
        );
        // Deterministic rendering.
        assert_eq!(obs.to_json(), host.observability().to_json());
    }

    /// A tenant config with text capture on and a 1s shard window, so
    /// every 1s-spaced checkpoint seals a segment.
    fn texty_config() -> Config {
        Config {
            width: 64,
            height: 48,
            enable_display_recording: false,
            index_shard_window: Duration::from_secs(1),
            ..Config::default()
        }
    }

    /// Shows `text` in tenant `id`'s session (hiding `prev` first so
    /// hits stay distinct intervals), then checkpoints — which seals
    /// the shard once the window has elapsed. Returns the shown node.
    fn show_and_checkpoint(
        host: &mut Host,
        id: u64,
        prev: Option<dv_access::NodeId>,
        text: &str,
    ) -> dv_access::NodeId {
        let server = host.session_mut(id).unwrap();
        let app = match server.desktop_mut().apps().first().copied() {
            Some(app) => app,
            None => server.desktop_mut().register_app("editor"),
        };
        if let Some(node) = prev {
            server.desktop_mut().remove_subtree(app, node);
        }
        host.clock.advance(Duration::from_millis(100));
        let server = host.session_mut(id).unwrap();
        let root = server.desktop_mut().root(app).unwrap();
        let node = server
            .desktop_mut()
            .add_node(app, root, dv_access::Role::Paragraph, text);
        host.clock.advance(Duration::from_secs(1));
        host.checkpoint(id).unwrap();
        node
    }

    #[test]
    fn cross_session_search_merges_by_global_rank() {
        let mut host = Host::new(HostConfig::default());
        let a = host.create_session("alice", texty_config());
        let b = host.create_session("bob", texty_config());
        // Interleave: alice sees the needle first and last, bob in the
        // middle; chronological merge must interleave the tenants.
        let first = show_and_checkpoint(&mut host, a, None, "needle one");
        show_and_checkpoint(&mut host, b, None, "needle two");
        show_and_checkpoint(&mut host, a, Some(first), "needle three");
        let hits = host
            .search_all("needle", RankOrder::Chronological, 16)
            .unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(
            hits.iter().map(|h| h.label.as_str()).collect::<Vec<_>>(),
            vec!["alice", "bob", "alice"],
            "merged chronologically across tenants, not per-tenant"
        );
        assert!(hits.windows(2).all(|w| w[0].hit.time <= w[1].hit.time));
        // Truncation keeps the top of the *global* ranking.
        let top = host
            .search_all("needle", RankOrder::Chronological, 1)
            .unwrap();
        assert_eq!(top[0].label, "alice");
        assert_eq!(top[0].hit.time, hits[0].hit.time);
        assert_eq!(host.obs.snapshot().counter(names::HOST_CROSS_QUERIES), 2);
        // A query matching nobody is empty, not an error.
        assert!(host
            .search_all("absent", RankOrder::Chronological, 16)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn compaction_rounds_run_on_the_shared_pool_without_blocking_ingest() {
        // Two workers, then none: the same round either way, only run
        // by someone else.
        for commit_workers in [2, 0] {
            compaction_round_with(commit_workers);
        }
    }

    fn compaction_round_with(commit_workers: usize) {
        let mut host = Host::new(HostConfig {
            commit_workers,
            ..HostConfig::default()
        });
        assert_eq!(host.pool.workers(), commit_workers);
        let id = host.create_session("compacted", texty_config());
        let mut prev = None;
        for i in 0..6 {
            prev = Some(show_and_checkpoint(
                &mut host,
                id,
                prev,
                &format!("page{i} words"),
            ));
        }
        host.flush_session(id).unwrap();
        let engine = host.session(id).unwrap().tidx().unwrap();
        let live = || engine.log().layout().live.len();
        let before = live();
        assert!(before >= 4, "1s window sealed per checkpoint: {before}");
        let scheduled = host.compact_round();
        assert_eq!(scheduled, 1);
        // Ingest keeps flowing while compaction is queued/running.
        show_and_checkpoint(&mut host, id, prev, "page6 words");
        if commit_workers == 0 {
            // Nobody else will run them: both are done already.
            assert!(live() < before);
            assert_eq!(host.session(id).unwrap().engine().inflight(), 0);
            assert!(host.store().lock().contains("compacted-00000007"));
        }
        // Draining the lane waits for aux tasks too.
        host.flush_session(id).unwrap();
        assert!(
            live() < before,
            "compaction merged a batch: {before} -> {}",
            live()
        );
        // Every page is still findable after compaction.
        for i in 0..7 {
            let hits = host
                .search_all(&format!("page{i}"), RankOrder::Chronological, 8)
                .unwrap();
            assert_eq!(hits.len(), 1, "page{i} survived compaction");
        }
        assert_eq!(
            host.obs.snapshot().counter(names::HOST_COMPACTION_ROUNDS),
            1
        );
    }

    #[test]
    fn revived_sessions_ride_the_host_pool() {
        let mut host = Host::new(HostConfig::default());
        let id = host.create_session("tenant", tiny_config());
        dirty_and_checkpoint(&mut host, id, 2);
        host.flush_session(id).unwrap();
        let server = host.session_mut(id).unwrap();
        let revived = server.take_me_back(server.now()).unwrap();
        server.checkpoint_session(revived).unwrap();
        let engine = &mut server.session_mut(revived).unwrap().engine;
        engine.flush().unwrap();
        assert_eq!(host.pool.lanes().len(), 2, "tenant + its revived session");
        // Main and revived sessions store the same format: one RLE stream.
        for blob in ["tenant-00000002", "tenant.s1-00000001"] {
            let first = host.store().lock().get(blob).expect("committed")[0];
            assert!(first <= 0x01, "{blob}");
        }
        host.drop_session(id).unwrap();
        assert!(host.pool.lanes().is_empty(), "every lane left with it");
    }

    /// Each engine opens its lane on the host's pool when it is built
    /// and closes it when it is dropped — the tenant's own, and each
    /// revived session's — after settling what it still had pending.
    #[test]
    fn lanes_follow_the_engines_that_own_them() {
        let mut host = Host::new(HostConfig {
            commit_workers: 1,
            ..HostConfig::default()
        });
        let lanes = |host: &Host| host.pool.lanes();
        let id = host.create_session("tenant", tiny_config());
        let main = host.session(id).unwrap().engine().lane();
        assert_eq!(lanes(&host), vec![main]);
        dirty_and_checkpoint(&mut host, id, 2);
        let revive = |host: &mut Host, counter| {
            let server = host.session_mut(id).unwrap();
            let revived = server.revive_counter(counter).unwrap();
            (revived, server.session(revived).unwrap().engine.lane())
        };
        let (first, first_lane) = revive(&mut host, 1);
        assert_eq!(lanes(&host), vec![main, first_lane]);
        let (second, second_lane) = revive(&mut host, 2);
        assert_eq!(lanes(&host), vec![main, first_lane, second_lane]);
        let server = host.session_mut(id).unwrap();
        server.checkpoint_session(first).unwrap();
        server.close_session(first).unwrap();
        assert_eq!(lanes(&host), vec![main, second_lane]);
        // Commits still pending when the tenant goes land first.
        host.session_mut(id)
            .unwrap()
            .checkpoint_session(second)
            .unwrap();
        host.drop_session(id).unwrap();
        assert!(lanes(&host).is_empty());
        for blob in ["tenant.s1-00000001", "tenant.s2-00000001"] {
            assert!(host.store().lock().contains(blob), "{blob} committed");
        }
    }

    #[test]
    fn restore_fingerprint_is_stable_across_identical_runs() {
        let run = || {
            let mut host = Host::new(HostConfig::default());
            let id = host.create_session("fp", tiny_config());
            let (p, addr) = dirty_and_checkpoint(&mut host, id, 3);
            host.restore_fingerprint(id, &[(p, addr, 4 * 4096)])
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    fn visual_config() -> Config {
        Config {
            width: 64,
            height: 48,
            enable_text_capture: false,
            index_shard_window: Duration::from_secs(1),
            ..Config::default()
        }
    }

    /// Paints a seeded, visually structured scene on a tenant's screen
    /// and records a keyframe of it.
    fn paint_tenant_scene(host: &mut Host, id: u64, seed: u32) {
        use dv_display::Rect;
        let server = host.session_mut(id).unwrap();
        server
            .driver_mut()
            .fill_rect(Rect::new(0, 0, 64, 48), 0x101010);
        for i in 0..8u32 {
            let x = seed.wrapping_mul(31).wrapping_add(i * 13) % 48;
            let y = seed.wrapping_mul(17).wrapping_add(i * 7) % 32;
            let color = 0xFFu32 << (8 * ((seed + i) % 3));
            server
                .driver_mut()
                .fill_rect(Rect::new(x, y, 12, 12), color);
        }
        server.force_keyframe();
    }

    #[test]
    fn visual_all_merges_tenant_strips_by_distance() {
        let mut host = Host::new(HostConfig::default());
        let a = host.create_session("alpha", visual_config());
        let b = host.create_session("beta", visual_config());
        // A third tenant with visual recall off contributes nothing.
        let c = host.create_session(
            "gamma",
            Config {
                enable_visual_index: false,
                ..visual_config()
            },
        );
        for round in 0..3u32 {
            host.clock.advance(Duration::from_secs(1));
            paint_tenant_scene(&mut host, a, round);
            paint_tenant_scene(&mut host, b, round + 100);
            paint_tenant_scene(&mut host, c, round);
            for id in [a, b, c] {
                host.checkpoint(id).unwrap();
            }
        }
        // Probe with tenant alpha's second scene: alpha's instance is
        // the global best at distance 0; every returned hit is tagged
        // with its tenant.
        let probe = host
            .session_mut(a)
            .unwrap()
            .browse(dv_time::Timestamp::from_secs(2))
            .unwrap();
        let hits = host.visual_all(&probe, 4);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].tenant, a);
        assert_eq!(hits[0].label, "alpha");
        assert_eq!(hits[0].hit.distance, 0);
        assert!(hits.iter().all(|h| h.tenant != c), "gamma has no strip");
        // Global order: distance ascending, ties most-recent-first.
        for pair in hits.windows(2) {
            assert!(
                (pair[0].hit.distance, std::cmp::Reverse(pair[0].hit.last))
                    <= (pair[1].hit.distance, std::cmp::Reverse(pair[1].hit.last))
            );
        }
        assert_eq!(host.obs.snapshot().counter(names::HOST_VISUAL_QUERIES), 1);
    }

    #[test]
    fn sealed_strips_surface_in_storage_accounting() {
        let mut host = Host::new(HostConfig::default());
        let id = host.create_session("vis", visual_config());
        // The one-second strip window seals at nearly every checkpoint.
        for round in 0..4u32 {
            host.clock.advance(Duration::from_secs(1));
            paint_tenant_scene(&mut host, id, round);
            host.checkpoint(id).unwrap();
        }
        let vidx = host.session(id).unwrap().vidx().unwrap();
        assert!(vidx.stats().live_segments >= 1);
        // Strip blobs are namespaced by the tenant label and counted
        // in the host's logical total.
        let strip = host.store().lock().get("vis.vidxseg-00000001");
        let strip = strip.expect("the first strip segment is sealed");
        assert!(!strip.is_empty());
        assert!(strip.len() as u64 <= host.storage_logical_bytes());
    }
}
