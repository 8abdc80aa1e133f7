//! Golden test for the `metrics` verb: the exposition must stay valid
//! Prometheus text format (a scraper-grade line parser lives below),
//! end with the `# EOF` terminator, and keep its metric names stable
//! across a refresh cycle — dashboards break when names churn.

use std::collections::BTreeSet;
use std::sync::Arc;

use qrank_serve::{
    handle_request, EdgeDelta, LruCache, Metrics, RefreshConfig, RefreshEngine, ShardedStore,
};

mod common;
use common::seed_series;

/// Is `s` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one `{key="value",…}` label block, validating escaping: inside
/// a quoted value only `\\`, `\"`, and `\n` escapes are legal, and every
/// `"` must be escaped. Returns the rest of the line after `}`.
fn parse_labels(s: &str) -> Result<&str, String> {
    let mut rest = s.strip_prefix('{').ok_or("label block must start with {")?;
    loop {
        let eq = rest.find('=').ok_or(format!("label without '=': {rest}"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        let mut chars = rest.char_indices();
        let close = loop {
            match chars.next() {
                None => return Err("unterminated label value".into()),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\' | '"' | 'n')) => {}
                    other => return Err(format!("illegal escape {other:?}")),
                },
                Some((i, '"')) => break i,
                Some(_) => {}
            }
        };
        rest = &rest[close + 1..];
        match rest.chars().next() {
            Some(',') => rest = &rest[1..],
            Some('}') => return Ok(&rest[1..]),
            other => return Err(format!("expected ',' or '}}' after value, got {other:?}")),
        }
    }
}

/// A parsed sample line: `(family name, value)` where the family name
/// strips the `_bucket`/`_sum`/`_count` suffix of histogram series.
fn parse_sample(line: &str) -> Result<(String, f64), String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .ok_or(format!("no name/value split in {line:?}"))?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let rest = &line[name_end..];
    let rest = if rest.starts_with('{') {
        parse_labels(rest)?
    } else {
        rest
    };
    let value: f64 = rest
        .trim()
        .parse()
        .map_err(|_| format!("non-numeric value in {line:?}"))?;
    let family = name
        .strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .unwrap_or(name);
    Ok((family.to_string(), value))
}

/// Validate a whole exposition; returns the set of declared families.
fn parse_exposition(text: &str) -> BTreeSet<String> {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(*lines.last().unwrap(), "# EOF", "missing terminator");
    let mut declared = BTreeSet::new();
    let mut sampled = BTreeSet::new();
    for line in &lines[..lines.len() - 1] {
        if let Some(comment) = line.strip_prefix("# ") {
            let fields: Vec<&str> = comment.split_whitespace().collect();
            assert_eq!(fields[0], "TYPE", "only TYPE comments are emitted: {line}");
            assert!(valid_metric_name(fields[1]), "{line}");
            assert!(
                matches!(fields[2], "counter" | "gauge" | "histogram"),
                "unknown type in {line}"
            );
            assert!(
                declared.insert(fields[1].to_string()),
                "family {} declared twice",
                fields[1]
            );
        } else {
            let (family, value) = parse_sample(line).unwrap_or_else(|e| panic!("{e}"));
            assert!(value.is_finite(), "non-finite sample in {line:?}");
            sampled.insert(family);
        }
    }
    assert_eq!(
        declared, sampled,
        "every declared family must have samples and vice versa"
    );
    declared
}

#[test]
fn metrics_exposition_is_valid_and_names_survive_a_refresh() {
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let metrics = Metrics::new();
    let cache = parking_lot::Mutex::new(LruCache::new(8));

    // drive some traffic so every serve counter and the latency
    // histogram carry samples
    for line in ["score 1", "topk 3", "topk 3", "health", "stats", "nonsense"] {
        handle_request(line, &handle, &metrics, &cache);
    }
    let text = handle_request("metrics", &handle, &metrics, &cache);
    let families = parse_exposition(&text);
    for expected in [
        "qrank_store_generation",
        "qrank_store_pages",
        "qrank_serve_requests",
        "qrank_serve_errors",
        "qrank_serve_cache_hits",
        "qrank_serve_cache_misses",
        "qrank_serve_latency_ns",
    ] {
        assert!(families.contains(expected), "missing family {expected}");
    }

    // histogram invariants: cumulative buckets are non-decreasing and
    // the +Inf bucket equals _count
    let buckets: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("qrank_serve_latency_ns_bucket"))
        .map(|l| parse_sample(l).unwrap().1)
        .collect();
    assert!(!buckets.is_empty());
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    let count = text
        .lines()
        .find(|l| l.starts_with("qrank_serve_latency_ns_count"))
        .map(|l| parse_sample(l).unwrap().1)
        .unwrap();
    assert_eq!(*buckets.last().unwrap(), count);

    // refresh a generation; the name set must not change (values may)
    engine
        .ingest(&EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        })
        .unwrap()
        .unwrap();
    let after = handle_request("metrics", &handle, &metrics, &cache);
    assert_eq!(
        families,
        parse_exposition(&after),
        "metric names changed across a refresh cycle"
    );
    // and the new generation is visible in the gauge
    assert!(after.contains("\nqrank_store_generation 2\n"), "{after}");
}

#[test]
fn label_escaping_round_trips() {
    // the parser itself must accept legal escapes and reject illegal
    // ones, so a future label-bearing metric can't silently regress
    assert!(parse_labels(r#"{le="0.5"} 3"#).is_ok());
    assert!(parse_labels(r#"{path="a\\b\"c\nd"} 1"#).is_ok());
    assert!(parse_labels(r#"{le="0.5} 3"#).is_err(), "unterminated");
    assert!(parse_labels(r#"{le="a\qb"} 3"#).is_err(), "illegal escape");
    assert!(parse_labels(r#"{0bad="x"} 3"#).is_err(), "bad label name");
}
