//! The peer-replicated in-memory hot checkpoint tier.
//!
//! Each save step, every rank pushes its (dirty-filtered) optimizer shard
//! to `K` peer ranks over the persistent [`ucp_collectives::exchange`]
//! mesh and installs a copy in its own bank. The placement is a simple
//! ring: rank `r` replicates to ranks `r+1 .. r+K` (mod world), so every
//! rank's state lives on `K + 1` distinct ranks and any single-rank
//! failure leaves a complete copy among the survivors. `K` consecutive
//! failures are still recoverable; `K + 1` are not — that is the disk
//! tier's job.
//!
//! The first push of a segment is a **full** shard; subsequent pushes are
//! **deltas**: the chunk-space runs the dirty tracker marked since the
//! previous save, which lazy Adam guarantees are the only elements that
//! changed. Every push carries CRC-32C checksums of the *full* post-save
//! state, so a holder that patches a delta onto its base verifies the
//! result end-to-end and drops the replica (counting
//! `hot/replica_rejected`) on any mismatch — a corrupt replica is never
//! served.
//!
//! Memory bound: a rank's bank holds replicas for `K + 1` source ranks
//! (itself plus its wards) × [`RETAIN_STEPS`] steps, so bank memory is at
//! most `(K + 1) × RETAIN_STEPS × shard_bytes` regardless of run length.
//!
//! On failure the supervisor marks the dead ranks' banks lost and asks
//! [`HotTier::try_recover`] for the newest step at which *every* source
//! rank still has a CRC-valid replica in a surviving bank. If one exists,
//! the shards are consolidated in memory ([`MemoryCheckpoint::assemble`] —
//! the exact convert-pass operations, so the result is bitwise-identical
//! to the disk checkpoint of the same step) and served to the restarted
//! topology; otherwise recovery falls back to the latest committed disk
//! checkpoint.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ucp_collectives::exchange::Mesh;
use ucp_core::checkpoint::{CommonState, OptimShard};
use ucp_core::{HotShard, MemoryCheckpoint};
use ucp_storage::crc::crc32c;

use crate::dirty::DirtyMap;
use crate::snapshot::CheckpointSnapshot;

/// Replica generations retained per (bank, source) slot. Two steps keep
/// the previous save recoverable while the current one is being
/// replicated, bounding bank memory instead of growing with run length.
pub const RETAIN_STEPS: usize = 2;

/// One replication message: a full shard at segment start, dirty-run
/// deltas afterwards. Both carry CRC-32C checksums of the full post-save
/// `[fp32, exp_avg, exp_avg_sq]` chunks.
#[derive(Clone)]
enum HotMsg {
    Full {
        shard: HotShard,
        crc: [u32; 3],
    },
    Delta {
        common: CommonState,
        /// `(chunk_offset, len)` runs, sorted, in this rank's chunk space.
        runs: Vec<(usize, usize)>,
        /// Run payloads, concatenated in run order, per state key.
        data: [Vec<f32>; 3],
        crc: [u32; 3],
    },
}

/// One installed replica: a source rank's shard at one step, plus the
/// checksums it was verified against.
struct Replica {
    step: u64,
    shard: HotShard,
    crc: [u32; 3],
}

/// Per-rank replica bank: source rank → replicas, newest last.
type Bank = HashMap<usize, Vec<Replica>>;

struct TierState {
    world: usize,
    mesh: Option<Arc<Mesh<HotMsg>>>,
    /// `banks[r]` models rank r's RAM. Process-level so it survives the
    /// cluster teardown a rank failure causes.
    banks: Vec<Bank>,
    /// Ranks the supervisor declared dead; their banks are unavailable.
    lost: Vec<bool>,
    /// Whether each rank has pushed its full shard this segment (first
    /// push is full, later ones are deltas).
    pushed_full: Vec<bool>,
}

/// The process-level hot-tier store. Owned by the supervisor (shared into
/// each segment's rank closures), so replicas outlive the cluster run
/// that produced them — which is exactly what makes them recoverable
/// after a rank failure unwinds every rank thread.
pub struct HotTier {
    replicas: usize,
    state: Mutex<TierState>,
}

impl HotTier {
    /// A tier replicating each rank's shard to `replicas` peers.
    pub fn new(replicas: usize) -> HotTier {
        assert!(replicas >= 1, "caller validates the replication factor");
        HotTier {
            replicas,
            state: Mutex::new(TierState {
                world: 0,
                mesh: None,
                banks: Vec::new(),
                lost: Vec::new(),
                pushed_full: Vec::new(),
            }),
        }
    }

    /// The replication factor K.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Reset for a new supervised segment of `world` ranks: fresh mesh,
    /// empty banks (the world may have changed across a ladder rung, and
    /// stale replicas from a previous topology must never be served).
    pub fn begin_segment(&self, world: usize) {
        let mut s = self.state.lock().expect("hot tier poisoned");
        s.world = world;
        s.mesh = Some(Arc::new(Mesh::new(world)));
        s.banks = (0..world).map(|_| Bank::new()).collect();
        s.lost = vec![false; world];
        s.pushed_full = vec![false; world];
    }

    /// Holder ranks `rank` replicates to: the next K ranks on the ring.
    pub fn holders_of(&self, rank: usize, world: usize) -> Vec<usize> {
        (1..=self.replicas).map(|k| (rank + k) % world).collect()
    }

    /// Source ranks whose replicas `rank` hosts (besides itself).
    pub fn wards_of(&self, rank: usize, world: usize) -> Vec<usize> {
        (1..=self.replicas)
            .map(|k| (rank + world - k) % world)
            .collect()
    }

    /// One rank's replication round at a save step, from the step's
    /// checkpoint snapshot: push to the K holders, self-install, and
    /// install the K wards' pushes. The snapshot is borrowed — its full
    /// shard is cloned only for a full push and for the self-install.
    /// Returns the payload bytes this rank pushed. Failures are the
    /// caller's to count — a failed round degrades the tier, never the
    /// training run.
    pub fn replicate(
        &self,
        rank: usize,
        snapshot: &CheckpointSnapshot,
        deadline: Duration,
    ) -> Result<u64, String> {
        let (mesh, world, first) = {
            let mut s = self.state.lock().expect("hot tier poisoned");
            let mesh = Arc::clone(s.mesh.as_ref().ok_or("hot tier: no active segment")?);
            let first = !s.pushed_full[rank];
            s.pushed_full[rank] = true;
            (mesh, s.world, first)
        };
        let step = snapshot.common.iteration;
        let chunk = &snapshot.shard;
        let crc = [
            crc_f32(&chunk.fp32),
            crc_f32(&chunk.exp_avg),
            crc_f32(&chunk.exp_avg_sq),
        ];
        let full = || HotMsg::Full {
            shard: HotShard {
                common: snapshot.common.clone(),
                tp: snapshot.tp,
                pp: snapshot.pp,
                shard: chunk.clone(),
            },
            crc,
        };
        let msg = match &snapshot.dirty {
            Some(dirty) if !first => {
                let runs = dirty_chunk_runs(chunk, dirty);
                let data = [
                    gather_runs(&chunk.fp32, &runs),
                    gather_runs(&chunk.exp_avg, &runs),
                    gather_runs(&chunk.exp_avg_sq, &runs),
                ];
                HotMsg::Delta {
                    common: snapshot.common.clone(),
                    runs,
                    data,
                    crc,
                }
            }
            _ => full(),
        };
        let bytes = match &msg {
            HotMsg::Full { shard, .. } => shard.payload_bytes(),
            HotMsg::Delta { data, .. } => (data.iter().map(Vec::len).sum::<usize>() * 4) as u64,
        } * self.replicas as u64;

        // Sends never block (unbounded mesh channels): push everything
        // first, then drain the wards — deadlock-free by construction.
        let lease = mesh.lease(rank, step);
        for to in self.holders_of(rank, world) {
            lease
                .send(to, msg.clone())
                .map_err(|e| format!("hot push to rank {to}: {e:?}"))?;
        }
        // Self-install covers the holders-all-dead direction of the
        // placement guarantee: a surviving rank always serves itself.
        let own = match msg {
            HotMsg::Full { .. } => msg,
            HotMsg::Delta { .. } => full(),
        };
        self.install(rank, rank, step, own);
        for from in self.wards_of(rank, world) {
            let incoming = lease
                .recv_from(from, deadline)
                .map_err(|e| format!("hot pull from rank {from}: {e:?}"))?;
            self.install(rank, from, step, incoming);
        }
        lease.finish();
        Ok(bytes)
    }

    /// Install a received replica into `holder`'s bank, verifying the
    /// CRC end-to-end. A delta is patched onto the newest base replica of
    /// the same source; any checksum mismatch drops the replica and ticks
    /// `hot/replica_rejected` instead of installing corrupt state.
    fn install(&self, holder: usize, src: usize, step: u64, msg: HotMsg) {
        let mut s = self.state.lock().expect("hot tier poisoned");
        let replica = match msg {
            HotMsg::Full { shard, crc } => {
                let got = [
                    crc_f32(&shard.shard.fp32),
                    crc_f32(&shard.shard.exp_avg),
                    crc_f32(&shard.shard.exp_avg_sq),
                ];
                if got != crc {
                    ucp_telemetry::count("hot/replica_rejected", 1);
                    return;
                }
                Replica { step, shard, crc }
            }
            HotMsg::Delta {
                common,
                runs,
                data,
                crc,
            } => {
                let Some(base) = s.banks[holder]
                    .get(&src)
                    .and_then(|v| v.last())
                    .map(|r| r.shard.clone())
                else {
                    // No base to patch (e.g. the full push was rejected):
                    // the source's replica chain on this holder is broken
                    // until the next segment.
                    ucp_telemetry::count("hot/replica_rejected", 1);
                    return;
                };
                let mut shard = base;
                shard.common = common;
                patch_runs(&mut shard.shard.fp32, &runs, &data[0]);
                patch_runs(&mut shard.shard.exp_avg, &runs, &data[1]);
                patch_runs(&mut shard.shard.exp_avg_sq, &runs, &data[2]);
                let got = [
                    crc_f32(&shard.shard.fp32),
                    crc_f32(&shard.shard.exp_avg),
                    crc_f32(&shard.shard.exp_avg_sq),
                ];
                if got != crc {
                    ucp_telemetry::count("hot/replica_rejected", 1);
                    return;
                }
                Replica { step, shard, crc }
            }
        };
        let slot = s.banks[holder].entry(src).or_default();
        slot.retain(|r| r.step != step);
        slot.push(replica);
        slot.sort_by_key(|r| r.step);
        if slot.len() > RETAIN_STEPS {
            let drop = slot.len() - RETAIN_STEPS;
            slot.drain(..drop);
        }
    }

    /// Declare ranks dead: their banks are no longer available to serve
    /// replicas. (Their *state* lives on in surviving banks — that is the
    /// point of the tier.)
    pub fn mark_lost(&self, ranks: &[usize]) {
        let mut s = self.state.lock().expect("hot tier poisoned");
        for &r in ranks {
            if r < s.lost.len() {
                s.lost[r] = true;
            }
        }
    }

    /// Try to recover from peer memory: find the newest step at which
    /// every source rank has a CRC-valid replica in a surviving bank and
    /// consolidate those shards into an in-memory universal checkpoint.
    /// Returns the checkpoint plus the surviving ranks whose banks served
    /// shards, or `None` when the hot copy is incomplete (multi-fault
    /// beyond K, replica chain broken, or CRC rot) — the caller falls
    /// back to disk.
    pub fn try_recover(&self) -> Option<(MemoryCheckpoint, Vec<usize>)> {
        let s = self.state.lock().expect("hot tier poisoned");
        if s.world == 0 {
            return None;
        }
        // Steps available per source, restricted to surviving banks.
        let available = |src: usize, step: u64| -> Option<usize> {
            // Prefer the source's own bank, then the ring order.
            std::iter::once(src)
                .chain((1..=self.replicas).map(|k| (src + k) % s.world))
                .find(|&holder| {
                    !s.lost[holder]
                        && s.banks[holder]
                            .get(&src)
                            .is_some_and(|v| v.iter().any(|r| r.step == step))
                })
        };
        // Candidate steps, newest first: any step any surviving bank holds.
        let mut steps: Vec<u64> = s
            .banks
            .iter()
            .enumerate()
            .filter(|(h, _)| !s.lost[*h])
            .flat_map(|(_, b)| b.values().flatten().map(|r| r.step))
            .collect();
        steps.sort_unstable();
        steps.dedup();
        for &step in steps.iter().rev() {
            let holders: Option<Vec<usize>> =
                (0..s.world).map(|src| available(src, step)).collect();
            let Some(holders) = holders else { continue };
            let mut shards = Vec::with_capacity(s.world);
            let mut served: Vec<usize> = Vec::new();
            let mut valid = true;
            for (src, &holder) in holders.iter().enumerate() {
                let replica = s.banks[holder]
                    .get(&src)
                    .and_then(|v| v.iter().find(|r| r.step == step))
                    .expect("holder chosen because it has the step");
                // Guard against in-memory rot between install and serve.
                let got = [
                    crc_f32(&replica.shard.shard.fp32),
                    crc_f32(&replica.shard.shard.exp_avg),
                    crc_f32(&replica.shard.shard.exp_avg_sq),
                ];
                if got != replica.crc {
                    ucp_telemetry::count("hot/replica_rejected", 1);
                    valid = false;
                    break;
                }
                shards.push(replica.shard.clone());
                served.push(holder);
            }
            if !valid {
                continue;
            }
            match MemoryCheckpoint::assemble(shards) {
                Ok(ckpt) => {
                    served.sort_unstable();
                    served.dedup();
                    return Some((ckpt, served));
                }
                Err(e) => {
                    // An incomplete or inconsistent shard set at this step;
                    // try an older one.
                    eprintln!("hot tier: assemble at step {step} failed: {e}");
                    continue;
                }
            }
        }
        None
    }

    /// Total replica payload bytes currently held across surviving banks
    /// (telemetry/test convenience).
    pub fn resident_bytes(&self) -> u64 {
        let s = self.state.lock().expect("hot tier poisoned");
        s.banks
            .iter()
            .enumerate()
            .filter(|(h, _)| !s.lost[*h])
            .flat_map(|(_, b)| b.values().flatten())
            .map(|r| r.shard.payload_bytes())
            .sum()
    }
}

/// CRC-32C over an f32 slice's little-endian bytes.
fn crc_f32(xs: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(xs.len() * 4);
    for x in xs {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    crc32c(&bytes)
}

/// Intersect the dirty tracker's parameter-space ranges with this rank's
/// ZeRO fragments, yielding sorted `(chunk_offset, len)` runs — the only
/// elements of the chunk lazy Adam touched since the last drain.
fn dirty_chunk_runs(chunk: &OptimShard, dirty: &DirtyMap) -> Vec<(usize, usize)> {
    let layout = &chunk.layout;
    let zi = chunk.dp;
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for slot in &layout.slots {
        let Some(ranges) = dirty.get(&slot.name) else {
            continue;
        };
        for f in layout.fragments_of(slot) {
            if f.dp_rank != zi {
                continue;
            }
            for &(lo, len) in ranges {
                let a = lo.max(f.param_offset);
                let b = (lo + len).min(f.param_offset + f.len);
                if a < b {
                    runs.push((f.chunk_offset + (a - f.param_offset), b - a));
                }
            }
        }
    }
    runs.sort_unstable();
    // Merge adjacent runs so the payload header stays small.
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
    for (start, len) in runs {
        match merged.last_mut() {
            Some((s, l)) if *s + *l == start => *l += len,
            _ => merged.push((start, len)),
        }
    }
    merged
}

/// Concatenate the runs' values out of a chunk, in run order.
fn gather_runs(chunk: &[f32], runs: &[(usize, usize)]) -> Vec<f32> {
    let total: usize = runs.iter().map(|(_, l)| l).sum();
    let mut out = Vec::with_capacity(total);
    for &(start, len) in runs {
        out.extend_from_slice(&chunk[start..start + len]);
    }
    out
}

/// Write the runs' values back into a chunk, in run order.
fn patch_runs(chunk: &mut [f32], runs: &[(usize, usize)], data: &[f32]) {
    let mut off = 0;
    for &(start, len) in runs {
        chunk[start..start + len].copy_from_slice(&data[off..off + len]);
        off += len;
    }
    debug_assert_eq!(off, data.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring placement invariants behind the recovery guarantee: K + 1
    /// distinct copies per source, holders/wards are inverse relations,
    /// and for any single dead rank every source still has a survivor.
    #[test]
    fn ring_placement_survives_any_single_failure() {
        for world in [2usize, 3, 4, 8] {
            for k in 1..world {
                let tier = HotTier::new(k);
                for r in 0..world {
                    let holders = tier.holders_of(r, world);
                    assert_eq!(holders.len(), k);
                    assert!(!holders.contains(&r), "ring wrapped onto the source");
                    let mut distinct = holders.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), k, "duplicate holders");
                    for &h in &holders {
                        assert!(
                            tier.wards_of(h, world).contains(&r),
                            "holder {h} does not list {r} as a ward (world {world}, K {k})"
                        );
                    }
                }
                for dead in 0..world {
                    for src in 0..world {
                        let survives =
                            src != dead || tier.holders_of(src, world).iter().any(|&h| h != dead);
                        assert!(survives, "source {src} lost to single death {dead}");
                    }
                }
            }
        }
    }

    /// K consecutive failures stay recoverable; K + 1 wipe every copy of
    /// the first victim's shard — exactly the documented boundary.
    #[test]
    fn consecutive_failures_beyond_k_destroy_a_source() {
        let (world, k) = (6usize, 2usize);
        let tier = HotTier::new(k);
        let survives = |dead: &[usize], src: usize| -> bool {
            std::iter::once(src)
                .chain(tier.holders_of(src, world))
                .any(|h| !dead.contains(&h))
        };
        // K consecutive deaths: every source still has a live copy.
        let dead_k: Vec<usize> = (0..k).collect();
        for src in 0..world {
            assert!(survives(&dead_k, src));
        }
        // K + 1 consecutive deaths starting at src wipe src's copies.
        let dead_k1: Vec<usize> = (0..=k).collect();
        assert!(!survives(&dead_k1, 0));
    }

    #[test]
    fn gather_then_patch_roundtrips_dirty_runs() {
        let src: Vec<f32> = (0..16).map(|i| i as f32 * 1.5).collect();
        let runs = vec![(1usize, 3usize), (7, 2), (12, 4)];
        let data = gather_runs(&src, &runs);
        assert_eq!(data.len(), 9);
        let mut dst = vec![0.0f32; 16];
        patch_runs(&mut dst, &runs, &data);
        for &(start, len) in &runs {
            assert_eq!(&dst[start..start + len], &src[start..start + len]);
        }
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[11], 0.0);
    }
}
