//! The metrics `BENCHMARK.json` names.  The result line of an untraced run
//! holds exactly [`END_TO_END`], that of a traced run exactly [`PER_LAYER`];
//! a test keeps both lists equal to the file's.

/// Reported by every workload's untraced run.  Each workload reads them off
/// its own operation: one CV, one request, one what-if suite, one streamed
/// train (README.md, "End-to-end metrics").
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_mib", "MiB"),
    ("ac_cu", "ratio"),
];

/// Reported by traced runs.  Each layer is measured on the workload that
/// exercises it; the result line of another workload carries 0 for it, and
/// the human-readable output lists those metrics as not measured there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("ehr.generate_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("loss.passes", "count"),
    ("loss.pass_ms", "ms"),
    ("loss.busy_s", "s"),
    ("csr.scores_ms", "ms"),
    ("softmax.ms", "ms"),
    ("csr.scatter_ms", "ms"),
    ("csr.flops", "flop"),
    ("csr.bytes", "B"),
    ("pool.pass_ms.t1", "ms"),
    ("pool.pass_ms.t2", "ms"),
    ("pool.efficiency", "ratio"),
    ("admm.outer_iters", "count"),
    ("admm.inner_iters", "count"),
    ("admm.self_s", "s"),
    ("admm.prox_us", "us"),
    ("cv.cold_passes", "count"),
    ("cv.warm_passes", "count"),
    ("cv.featurize_s", "s"),
    ("cv.eval_s", "s"),
    ("serve.lag_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline", "count"),
    ("serve.pool_err", "count"),
    ("serve.wrong", "count"),
    ("serve.respawns", "count"),
    ("score.block_us.k1", "us"),
    ("score.block_us.k64", "us"),
    ("scenario.steps", "count"),
    ("scenario.predict_s", "s"),
    ("scenario.self_s", "s"),
    ("features.featurize_us", "us"),
    ("model.prob_us", "us"),
    ("stream.passes", "count"),
    ("stream.pass_ms", "ms"),
    ("ehr.regen_ms", "ms"),
    ("stream.featurize_ms", "ms"),
];

/// The metrics a run's result line must hold.
pub fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `{"name": …, "unit": …}` entries of one list of BENCHMARK.json.
    fn listed(manifest: &str, key: &str) -> Vec<(String, String)> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\": \"")).expect("field") + name.len() + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&manifest, key), ours, "{key}");
        }
    }
}
