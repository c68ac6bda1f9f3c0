//! The per-layer metrics a traced run reports, each named after the module
//! whose public functions it times. A workload that bypasses a layer
//! reports it as 0.

use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order. `BENCHMARK.json`
/// lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("obs.item_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.speed_factor", "ratio"),
    ("topology.parse_graph_ms", "ms"),
    ("topology.parse_graph_share", "ratio"),
    ("core.simulate_ms", "ms"),
    ("core.simulate_share", "ratio"),
    ("core.advance_states_ms", "ms"),
    ("core.advance_states_share", "ratio"),
    ("core.run_final_ms", "ms"),
    ("core.run_final_share", "ratio"),
    ("routing.route_ms", "ms"),
    ("routing.route_share", "ratio"),
    ("routing.plan_rounds", "count"),
    ("routing.plan_transfers", "count"),
    ("pebble.check_ms", "ms"),
    ("pebble.check_share", "ratio"),
    ("pebble.ops_total", "count"),
    ("pebble.ops_idle", "count"),
    ("pebble.host_steps", "count"),
    ("pebble.to_text_ms", "ms"),
    ("pebble.text_bytes", "bytes"),
    ("router.fingerprint_ms", "ms"),
    ("router.fingerprint_share", "ratio"),
    ("router.forwarded", "count"),
    ("router.retries", "count"),
    ("router.failovers", "count"),
    ("router.min_shard_share", "ratio"),
    ("serve.stage.accept_ms", "ms"),
    ("serve.stage.accept_share", "ratio"),
    ("serve.stage.queue_wait_ms", "ms"),
    ("serve.stage.queue_wait_share", "ratio"),
    ("serve.stage.dispatch_ms", "ms"),
    ("serve.stage.dispatch_share", "ratio"),
    ("serve.stage.singleflight_wait_ms", "ms"),
    ("serve.stage.singleflight_wait_share", "ratio"),
    ("serve.stage.plan_build_ms", "ms"),
    ("serve.stage.plan_build_share", "ratio"),
    ("serve.stage.simulate_ms", "ms"),
    ("serve.stage.simulate_share", "ratio"),
    ("serve.wire_ms", "ms"),
    ("serve.wire_share", "ratio"),
    ("serve.connect_ms", "ms"),
    ("serve.connect_share", "ratio"),
    ("serve.parse_request_us", "us"),
    ("serve.parse_response_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.singleflight_followers", "count"),
    ("serve.rejected", "count"),
];

/// Per-layer values of one traced run; unset layers read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Set one metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] (a typo in this crate).
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        // A layer a run never reached (0/0) reads as 0, never as `null`.
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of one metric (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Fill every `<layer>_share` from its `<layer>_ms` over `item_ms`: the
    /// layer's share of the item time, its Amdahl ceiling (removing the
    /// layer saves at most that fraction). Shares of nested layers overlap.
    pub fn shares(&mut self, item_ms: f64) {
        if item_ms <= 0.0 {
            return;
        }
        for (share, _) in PER_LAYER.iter().filter(|(n, _)| n.ends_with("_share")) {
            let layer = share.trim_end_matches("_share");
            if let Some(ms) = self.values.get(format!("{layer}_ms").as_str()).copied() {
                self.set(share, ms / item_ms);
            }
        }
    }

    /// `(name, value, unit)` for every metric, in [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(name, unit)| (name, self.get(name), unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_pair_with_their_layers() {
        let mut l = Layers::default();
        l.set("pebble.check_ms", 40.0);
        l.set("core.simulate_ms", 8.0);
        l.shares(50.0);
        assert_eq!(l.get("pebble.check_share"), 0.8);
        assert_eq!(l.get("core.simulate_share"), 0.16);
        // A bypassed layer has no time and so no share.
        assert_eq!(l.get("serve.wire_share"), 0.0);
        let mut empty = Layers::default();
        empty.set("pebble.check_ms", 1.0);
        empty.shares(0.0);
        assert_eq!(empty.get("pebble.check_share"), 0.0);
        // `router.min_shard_share` is the least-loaded shard's share of the
        // requests, not a share of item time.
        let time_shares = PER_LAYER
            .iter()
            .filter(|(n, _)| n.ends_with("_share") && *n != "router.min_shard_share");
        for (name, _) in time_shares {
            let layer = format!("{}_ms", name.trim_end_matches("_share"));
            assert!(PER_LAYER.iter().any(|(n, _)| *n == layer), "{name} has no {layer}");
        }
    }

    #[test]
    fn every_metric_is_reported_once() {
        let metrics = Layers::default().into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let mut names: Vec<_> = metrics.iter().map(|m| m.0).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn unknown_names_are_rejected() {
        Layers::default().set("pebble.chek_ms", 1.0);
    }
}
