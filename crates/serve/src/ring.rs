//! Consistent-hash ring for spec-affine shard routing.
//!
//! The router keys every simulate request by a hash of its spec text
//! ([`simulate_fingerprint`](crate::router::simulate_fingerprint)), then
//! asks the ring which shard owns that key. Affinity is the whole point: a
//! spec always lands on the same shard, so the shard's plan cache sees
//! every repeat and the server's single-flight coalescing keeps working
//! after scale-out.
//!
//! The ring is the classic virtual-node construction: each shard owns
//! [`VNODES`] points on a `u64` circle (FNV-1a of `(shard, replica)`), a
//! key is owned by the first point clockwise from its hash, and
//! [`successors`](Ring::successors) walks the circle to give the failover
//! order. Removing one shard therefore remaps *only* the keys that shard
//! owned — every other fingerprint keeps its home, which is what keeps the
//! surviving caches warm through a backend death.

/// Virtual nodes per shard. 64 points keeps the max/min key-share ratio
/// of a small ring within a few tens of percent, which is all the affinity
/// argument needs (perfect balance is the load generator's job — see
/// `LoadgenConfig::shards`).
pub const VNODES: usize = 64;

/// 64-bit FNV-1a over the concatenation of `parts`.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in parts.iter().flat_map(|part| part.iter()) {
        h ^= *byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The ring-point hash: FNV-1a over the bytes of `(shard, replica)`.
fn point_hash(shard: usize, replica: usize) -> u64 {
    fnv1a(&[&(shard as u64).to_le_bytes(), &(replica as u64).to_le_bytes()])
}

/// A consistent-hash ring over `shards` numbered `0..n`.
///
/// The ring itself is static — membership changes are expressed by the
/// caller skipping unhealthy shards while walking
/// [`successors`](Ring::successors), exactly how the router's failover
/// works. That keeps the mapping for healthy shards bit-stable across
/// ejections and reinstatements.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Build the ring for `shards` shards (at least one).
    pub fn new(shards: usize) -> Ring {
        let shards = shards.max(1);
        let mut points: Vec<(u64, usize)> =
            (0..shards).flat_map(|s| (0..VNODES).map(move |r| (point_hash(s, r), s))).collect();
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The home shard of a fingerprint: the owner of the first ring point
    /// clockwise from `fingerprint`.
    pub fn shard_of(&self, fingerprint: u64) -> usize {
        let idx = self.points.partition_point(|&(p, _)| p < fingerprint);
        self.points[idx % self.points.len()].1
    }

    /// The failover order for a fingerprint: every shard exactly once,
    /// starting at the home shard and continuing clockwise around the
    /// ring. The router tries these in order, skipping ejected backends,
    /// so a dead home shard's keys spill onto its ring successor and
    /// nowhere else.
    pub fn successors(&self, fingerprint: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < fingerprint);
        let mut order = Vec::with_capacity(self.shards);
        let mut seen = vec![false; self.shards];
        for i in 0..self.points.len() {
            let shard = self.points[(start + i) % self.points.len()].1;
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = Ring::new(4);
        assert_eq!(ring.shards(), 4);
        for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(ring.shard_of(fp), Ring::new(4).shard_of(fp), "stable mapping");
            let order = ring.successors(fp);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "failover order covers every shard once");
            assert_eq!(order[0], ring.shard_of(fp), "failover starts at the home shard");
        }
    }

    #[test]
    fn distribution_touches_every_shard() {
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        for k in 0..4096u64 {
            counts[ring.shard_of(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} owns no keys: {counts:?}");
            // Virtual nodes keep the share within a loose band of fair.
            assert!(c * 4 > 4096 / 4, "shard {s} owns under a quarter-share: {counts:?}");
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_keys() {
        let ring = Ring::new(4);
        for k in 0..2048u64 {
            let fp = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
            let order = ring.successors(fp);
            let home = order[0];
            // "Shard 2 died": the first healthy shard in failover order.
            let alive = |s: usize| s != 2;
            let rerouted = *order.iter().find(|&&s| alive(s)).expect("3 shards remain");
            if home != 2 {
                assert_eq!(rerouted, home, "keys of healthy shards never move");
            } else {
                assert_ne!(rerouted, 2, "dead shard's keys spill to a successor");
            }
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_home() {
        let ring = Ring::new(1);
        assert_eq!(ring.shard_of(42), 0);
        assert_eq!(ring.successors(42), vec![0]);
        // Zero clamps to one rather than panicking.
        assert_eq!(Ring::new(0).shards(), 1);
    }
}
