//! MIG deployments: segments placed on MIG-partitioned GPUs.

use crate::segment::Segment;
use parva_mig::{GpuState, Placement};
use parva_perf::PerfParams;
use serde::{Deserialize, Serialize};

/// A segment bound to a physical location: GPU index + slice placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedSegment {
    /// The segment.
    pub segment: Segment,
    /// Index of the GPU hosting it.
    pub gpu: usize,
    /// MIG placement (profile + start slice) inside that GPU.
    pub placement: Placement,
}

/// The deployment map produced by MIG-based schedulers (paper Fig. 2's
/// "Deployment"): a fleet of MIG-partitioned GPUs and the segments on them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigDeployment {
    gpus: Vec<GpuState>,
    segments: Vec<PlacedSegment>,
}

impl MigDeployment {
    /// An empty deployment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of GPUs in use.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Per-GPU MIG occupancy states.
    #[must_use]
    pub fn gpus(&self) -> &[GpuState] {
        &self.gpus
    }

    /// All placed segments.
    #[must_use]
    pub fn segments(&self) -> &[PlacedSegment] {
        &self.segments
    }

    /// Segments of one service.
    pub fn segments_of(&self, service_id: u32) -> impl Iterator<Item = &PlacedSegment> {
        self.segments
            .iter()
            .filter(move |s| s.segment.service_id == service_id)
    }

    /// Segments placed on one GPU.
    pub fn segments_on(&self, gpu: usize) -> impl Iterator<Item = &PlacedSegment> {
        self.segments.iter().filter(move |s| s.gpu == gpu)
    }

    /// Total GPCs allocated across the fleet.
    #[must_use]
    pub fn gpcs_allocated(&self) -> u32 {
        self.gpus.iter().map(|g| u32::from(g.gpcs_used())).sum()
    }

    /// Total GPC capacity of the fleet (7 per GPU).
    #[must_use]
    pub fn gpcs_capacity(&self) -> u32 {
        self.gpus.len() as u32 * u32::from(parva_mig::COMPUTE_SLICES)
    }

    /// Predicted aggregate capacity for a service, requests/s.
    #[must_use]
    pub fn capacity_of(&self, service_id: u32) -> f64 {
        self.segments_of(service_id)
            .map(|s| s.segment.throughput_rps)
            .sum()
    }

    /// Place a segment on GPU `gpu` (growing the fleet as needed) at an
    /// explicit placement.
    ///
    /// # Errors
    /// Propagates MIG placement violations.
    pub fn place_at(
        &mut self,
        segment: Segment,
        gpu: usize,
        placement: Placement,
    ) -> Result<(), parva_mig::PlaceError> {
        while self.gpus.len() <= gpu {
            self.gpus.push(GpuState::new());
        }
        self.gpus[gpu].place_at(placement)?;
        self.segments.push(PlacedSegment {
            segment,
            gpu,
            placement,
        });
        Ok(())
    }

    /// Place a segment on the first GPU (scanning from index 0) that can
    /// host its instance profile, appending a new GPU if none can. Returns
    /// the chosen (gpu, placement). This is the paper's `ALLOCATION`
    /// first-fit inner step.
    pub fn place_first_fit(&mut self, segment: Segment) -> PlacedSegment {
        let profile = segment.triplet.instance;
        for gpu in 0..self.gpus.len() {
            if let Some(start) = self.gpus[gpu].find_start(profile) {
                let placement = Placement::new(profile, start);
                self.gpus[gpu]
                    .place_at(placement)
                    .expect("find_start verified");
                let placed = PlacedSegment {
                    segment,
                    gpu,
                    placement,
                };
                self.segments.push(placed);
                return placed;
            }
        }
        let gpu = self.gpus.len();
        self.gpus.push(GpuState::new());
        let start = self.gpus[gpu]
            .find_start(profile)
            .expect("empty GPU hosts any profile");
        let placement = Placement::new(profile, start);
        self.gpus[gpu].place_at(placement).expect("empty GPU");
        let placed = PlacedSegment {
            segment,
            gpu,
            placement,
        };
        self.segments.push(placed);
        placed
    }

    /// Remove a placed segment (matched by GPU + placement). Returns the
    /// segment if found.
    pub fn remove(&mut self, gpu: usize, placement: Placement) -> Option<Segment> {
        let idx = self
            .segments
            .iter()
            .position(|s| s.gpu == gpu && s.placement == placement)?;
        let placed = self.segments.swap_remove(idx);
        let removed = self.gpus[gpu].remove(placement);
        debug_assert!(removed, "GPU state out of sync with segment list");
        Some(placed.segment)
    }

    /// Drop trailing/interior empty GPUs and renumber segments accordingly.
    pub fn compact(&mut self) {
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.gpus.len());
        let mut next = 0usize;
        for g in &self.gpus {
            if g.is_empty() {
                remap.push(None);
            } else {
                remap.push(Some(next));
                next += 1;
            }
        }
        self.gpus.retain(|g| !g.is_empty());
        for s in &mut self.segments {
            s.gpu = remap[s.gpu].expect("segment on empty GPU");
        }
    }

    /// Structural audit: every segment's placement exists in its GPU state,
    /// every GPU placement has exactly one segment, all GPU states validate.
    #[must_use]
    pub fn validate(&self) -> bool {
        if !self.gpus.iter().all(GpuState::validate) {
            return false;
        }
        let mut counted = 0usize;
        for (i, g) in self.gpus.iter().enumerate() {
            for p in g.placements() {
                let n = self
                    .segments
                    .iter()
                    .filter(|s| s.gpu == i && s.placement == *p)
                    .count();
                if n != 1 {
                    return false;
                }
                counted += 1;
            }
        }
        counted == self.segments.len()
    }
}

/// What physically changes on one GPU between two deployments.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuChange<K> {
    /// The GPU's physical key.
    pub key: K,
    /// Logical GPU of the new deployment on this key; `None` when the GPU
    /// was vacated.
    pub gpu: Option<usize>,
    /// Its multiset of MIG placements changed, so it re-flashes (a vacated
    /// GPU re-flashes to empty).
    pub reflash: bool,
    /// Weights of the segments new on this GPU, GiB.
    pub copy_gib: f64,
}

/// The physical diff between two deployments: every GPU whose multiset of
/// `(placement, service)` segments changed. Paper §III-F: a GPU whose
/// placements did not change needs no reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalDiff<K> {
    /// GPUs hosting segments afterwards in key order, then vacated GPUs in
    /// key order.
    pub changes: Vec<GpuChange<K>>,
    /// Segments that are new on their GPU (their weights must load).
    pub new_segments: usize,
    /// Total weights of the new segments, GiB.
    pub copy_gib: f64,
}

/// Diff two deployments GPU by GPU. `before_key` and `after_key` map each
/// deployment's logical GPUs to physical keys (`None`: not placed);
/// segments compare by `(key, placement, service)`, count-aware, and each
/// new one is priced by its model's weights.
pub fn physical_diff<K: Ord + Copy>(
    before: &MigDeployment,
    before_key: impl Fn(usize) -> Option<K>,
    after: &MigDeployment,
    after_key: impl Fn(usize) -> Option<K>,
) -> PhysicalDiff<K> {
    // Both sides as sorted `(key, placement, service)` identities; the new
    // side also carries each segment's index.
    let mut old: Vec<(K, Placement, u32)> = before
        .segments
        .iter()
        .filter_map(|ps| Some((before_key(ps.gpu)?, ps.placement, ps.segment.service_id)))
        .collect();
    old.sort_unstable();
    let mut new: Vec<(K, Placement, u32, usize)> = after
        .segments
        .iter()
        .enumerate()
        .filter_map(|(i, ps)| Some((after_key(ps.gpu)?, ps.placement, ps.segment.service_id, i)))
        .collect();
    new.sort_unstable();

    // Per new segment: the change it is new on, if it is new.
    let mut fresh: Vec<Option<usize>> = vec![None; after.segments.len()];
    let mut changes = Vec::new();
    let mut vacated = Vec::new();
    let (mut o, mut n) = (0, 0);
    loop {
        let key = match (old.get(o), new.get(n)) {
            (Some(a), Some(b)) => a.0.min(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (None, None) => break,
        };
        let o_end = o + old[o..].iter().take_while(|s| s.0 == key).count();
        let n_end = n + new[n..].iter().take_while(|s| s.0 == key).count();
        let (was, now) = (&old[o..o_end], &new[n..n_end]);
        (o, n) = (o_end, n_end);
        let Some(first) = now.first() else {
            vacated.push(key);
            continue;
        };
        // Sorted by placement first, so equal sequences are equal multisets.
        let reflash = !was.iter().map(|s| s.1).eq(now.iter().map(|s| s.1));
        let mut any_fresh = false;
        let mut kept = was.iter().peekable();
        for s in now {
            while kept.next_if(|k| (k.1, k.2) < (s.1, s.2)).is_some() {}
            if kept.next_if(|k| (k.1, k.2) == (s.1, s.2)).is_none() {
                fresh[s.3] = Some(changes.len());
                any_fresh = true;
            }
        }
        if reflash || any_fresh {
            changes.push(GpuChange {
                key,
                gpu: Some(after.segments[first.3].gpu),
                reflash,
                copy_gib: 0.0,
            });
        }
    }

    let mut diff = PhysicalDiff {
        changes,
        new_segments: 0,
        copy_gib: 0.0,
    };
    // Priced in the new deployment's segment order, which fixes the order
    // of the float sums for every caller.
    for (ps, change) in after.segments.iter().zip(fresh) {
        if let Some(c) = change {
            let weights = PerfParams::for_model(ps.segment.model).weights_gib;
            diff.changes[c].copy_gib += weights;
            diff.new_segments += 1;
            diff.copy_gib += weights;
        }
    }
    diff.changes
        .extend(vacated.into_iter().map(|key| GpuChange {
            key,
            gpu: None,
            reflash: true,
            copy_gib: 0.0,
        }));
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_mig::InstanceProfile;
    use parva_perf::Model;
    use parva_profile::Triplet;

    fn seg(id: u32, g: InstanceProfile) -> Segment {
        Segment {
            service_id: id,
            model: Model::ResNet50,
            triplet: Triplet::new(g, 8, 2),
            throughput_rps: 100.0 * f64::from(g.gpcs()),
            latency_ms: 10.0,
        }
    }

    #[test]
    fn first_fit_packs_one_gpu() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G4));
        d.place_first_fit(seg(1, InstanceProfile::G3));
        assert_eq!(d.gpu_count(), 1);
        assert_eq!(d.gpcs_allocated(), 7);
        assert!(d.validate());
    }

    #[test]
    fn first_fit_overflows_to_new_gpu() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G7));
        let p = d.place_first_fit(seg(1, InstanceProfile::G1));
        assert_eq!(p.gpu, 1);
        assert_eq!(d.gpu_count(), 2);
    }

    #[test]
    fn capacity_sums_per_service() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(5, InstanceProfile::G2));
        d.place_first_fit(seg(5, InstanceProfile::G2));
        d.place_first_fit(seg(6, InstanceProfile::G1));
        assert_eq!(d.capacity_of(5), 400.0);
        assert_eq!(d.capacity_of(6), 100.0);
        assert_eq!(d.capacity_of(99), 0.0);
    }

    #[test]
    fn remove_and_compact() {
        let mut d = MigDeployment::new();
        let a = d.place_first_fit(seg(0, InstanceProfile::G7));
        let b = d.place_first_fit(seg(1, InstanceProfile::G7));
        d.place_first_fit(seg(2, InstanceProfile::G7));
        assert_eq!(d.gpu_count(), 3);
        assert!(d.remove(b.gpu, b.placement).is_some());
        d.compact();
        assert_eq!(d.gpu_count(), 2);
        assert!(d.validate());
        // Segment on old GPU 2 must have been renumbered to 1.
        assert!(d
            .segments()
            .iter()
            .any(|s| s.gpu == 1 && s.segment.service_id == 2));
        // Removing again fails.
        assert!(d
            .remove(a.gpu, parva_mig::Placement::new(InstanceProfile::G1, 0))
            .is_none());
    }

    #[test]
    fn validate_catches_orphan_segment() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G2));
        // Corrupt: push a segment without a backing placement.
        d.segments.push(PlacedSegment {
            segment: seg(9, InstanceProfile::G1),
            gpu: 0,
            placement: Placement::new(InstanceProfile::G1, 6),
        });
        assert!(!d.validate());
    }

    #[test]
    fn gpcs_capacity() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G1));
        assert_eq!(d.gpcs_capacity(), 7);
        assert_eq!(d.gpcs_allocated(), 1);
    }
}
