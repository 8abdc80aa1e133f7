//! The metric tables — the same names `BENCHMARK.json` lists — and the
//! result line the driver reads.

use crate::Outcome;

/// One named metric.
#[derive(Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Is a higher value better?
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one (plain run); `README.md` says what the operation
/// behind `ops_per_s` / `op_*_ms` is on each workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("op_p50_ms", "ms"),
    lower("op_tail_ms", "ms"),
    higher("estimator_improvement", "ratio"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run). A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // sim (world)
    lower("sim.bootstrap_s", "s"),
    lower("sim.run_s", "s"),
    higher("sim.pages_born", "count"),
    // sim (crawler)
    lower("sim.link_graph_s", "s"),
    lower("sim.crawl_s", "s"),
    higher("sim.crawl_pages", "count"),
    higher("sim.crawl_edges", "count"),
    // graph
    lower("graph.align_s", "s"),
    higher("graph.common_pages", "count"),
    higher("graph.edges_kept", "count"),
    // pagerank
    lower("pagerank.solve_s", "s"),
    lower("pagerank.iterations", "count"),
    higher("pagerank.edges_per_s", "1/s"),
    higher("pagerank.colored_solves", "count"),
    // core
    lower("core.estimate_s", "s"),
    lower("core.engine_overhead_s", "s"),
    lower("core.columns_solved", "count"),
    higher("core.columns_reused", "count"),
    // wal
    lower("wal.encode_us", "us"),
    lower("wal.append_us", "us"),
    lower("wal.sync_ms", "ms"),
    lower("wal.checkpoint_ms", "ms"),
    lower("wal.open_ms", "ms"),
    lower("wal.write_amp", "ratio"),
    lower("wal.syncs", "count"),
    lower("wal.segments", "count"),
    // refresh (serve::refresh, serve::durability)
    lower("refresh.apply_ms", "ms"),
    lower("refresh.snapshot_ms", "ms"),
    lower("refresh.rerank_ms", "ms"),
    lower("refresh.journal_ms", "ms"),
    lower("refresh.checkpoint_ms", "ms"),
    lower("refresh.replayed_records", "count"),
    lower("refresh.replay_s", "s"),
    lower("refresh.recovery_s", "s"),
    lower("refresh.visible_p50_ms", "ms"),
    higher("refresh.publishes", "count"),
    // store (serve::store, serve::shard)
    lower("store.score_ns", "ns"),
    lower("store.topk_us", "us"),
    lower("store.publish_ms", "ms"),
    lower("store.bytes_per_page", "B"),
    // protocol
    lower("protocol.parse_ns", "ns"),
    lower("protocol.serialize_ns", "ns"),
    lower("protocol.bytes_per_response", "B"),
    // cache
    higher("cache.hit_rate", "ratio"),
    // server
    lower("server.handle_ns", "ns"),
    lower("server.socket_us", "us"),
    higher("server.requests", "count"),
    lower("server.score_p50_us", "us"),
    lower("server.topk_p50_us", "us"),
    lower("server.p99_us", "us"),
    // obs
    higher("obs.sampled_rps_ratio", "ratio"),
    // harness
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unattributed_pct", "%"),
    lower("feeder.max_late_ms", "ms"),
];

/// The single JSON line the driver parses: exactly `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(d, v)| {
            // every digit as measured; non-finite values were already
            // turned into a failed check, JSON cannot carry them
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A result line read back (by the run-everything mode).
#[derive(Debug, PartialEq)]
pub struct ParsedResult {
    /// `correct`
    pub correct: bool,
    /// `attempted`
    pub attempted: u64,
    /// `failed`
    pub failed: u64,
    /// `(name, value)` of every metric, in line order.
    pub metrics: Vec<(String, f64)>,
}

impl ParsedResult {
    /// The value of one metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Inverse of [`result_line`]; `None` for any other text.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
        Some(&s[s.find(key)? + key.len()..])
    }
    fn number(s: &str) -> &str {
        &s[..s.find([',', '}']).unwrap_or(s.len())]
    }
    let correct = number(after(line, "\"correct\": ")?).parse().ok()?;
    let attempted = number(after(line, "\"attempted\": ")?).parse().ok()?;
    let failed = number(after(line, "\"failed\": ")?).parse().ok()?;
    let mut metrics = Vec::new();
    for entry in after(line, "\"metrics\": {")?
        .split("\"}")
        .filter(|e| e.contains("\"value\""))
    {
        let name = entry.split('"').nth(1)?;
        let value = number(after(entry, "\"value\": ")?).parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `{"name": ..., "unit": ..., "better": ...}` of one array of
    /// `BENCHMARK.json`, in order.
    fn declared(json: &str, array: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').unwrap();
            let close = rest[open + 1..].find('"').unwrap();
            rest[open + 1..open + 1 + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (array, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String, String)> = table
                .iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(declared(&json, array), want, "{array}");
        }
        for w in crate::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            failures: vec![],
            metrics: vec![(&END_TO_END[0], 0.8127), (&END_TO_END[1], 1.5)],
            passes: vec![],
            facts: vec![],
        };
        let line = result_line(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        let back = parse_result_line(&line).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (true, 10, 0));
        assert_eq!(back.value("setup_s"), Some(0.8127));
        assert_eq!(back.value("wall_s"), Some(1.5));
        assert_eq!(back.value("rps"), None);
        assert_eq!(parse_result_line("all checks passed"), None);
    }
}
