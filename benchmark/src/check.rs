//! Output checks. Every one is fatal: a run whose outputs are wrong
//! reports `correct: false` and exits non-zero.

use qrank_core::{PipelineReport, Trend};
use qrank_graph::PageId;
use qrank_serve::ShardView;
use qrank_sim::World;

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }
}

/// Every observable of a simulated history: page count, per-page
/// popularity and awareness bits, the final edge list.
pub fn sim_fingerprint(world: &World) -> u64 {
    let mut h = Fnv::new();
    h.word(world.num_pages() as u64);
    for p in world.popularities() {
        h.word(p.to_bits());
    }
    for p in 0..world.num_pages() as u32 {
        h.word(world.awareness(p).to_bits());
    }
    for (src, dst) in world.link_graph_at(world.time()).edges() {
        h.word((u64::from(src) << 32) | u64::from(dst));
    }
    h.0
}

fn trend_code(t: Trend) -> u64 {
    match t {
        Trend::Increasing => 0,
        Trend::Decreasing => 1,
        Trend::Oscillating => 2,
        Trend::Flat => 3,
    }
}

/// Every bit a [`PipelineReport`] carries per page, plus its summary
/// means. Two reports are equal bit for bit iff their digests match
/// (up to a 2^-64 collision).
pub fn report_digest(r: &PipelineReport) -> u64 {
    let mut h = Fnv::new();
    h.word(r.pages.len() as u64);
    for p in &r.pages {
        h.word(p.0);
    }
    for &t in &r.trends {
        h.word(trend_code(t));
    }
    h.floats(&r.estimates);
    h.floats(&r.current);
    h.floats(&r.future);
    for &s in &r.selected {
        h.word(u64::from(s));
    }
    h.floats(&r.err_estimate);
    h.floats(&r.err_current);
    for s in [&r.summary_estimate, &r.summary_current] {
        h.word(s.mean_error.to_bits());
        h.word(s.median_error.to_bits());
        h.word(s.count as u64);
    }
    h.0
}

/// PageRank on the per-page scale sums to the node count.
pub fn check_mass(scores: &[f64]) -> Result<(), String> {
    let n = scores.len() as f64;
    let mass: f64 = scores.iter().sum();
    if (mass - n).abs() <= 1e-6 * n {
        Ok(())
    } else {
        Err(format!("PageRank mass {mass} over {n} pages"))
    }
}

/// `None` when two published views agree on every bit: generation,
/// snapshot time, page order, all three score fields.
pub fn store_mismatch(a: &ShardView, b: &ShardView) -> Option<String> {
    if a.generation() != b.generation() {
        return Some(format!(
            "generation {} vs {}",
            a.generation(),
            b.generation()
        ));
    }
    if a.snapshot_time().to_bits() != b.snapshot_time().to_bits() {
        return Some("snapshot time bits differ".into());
    }
    if a.len() != b.len() {
        return Some(format!("page count {} vs {}", a.len(), b.len()));
    }
    for ((pa, sa), (pb, sb)) in a.topk(a.len()).iter().zip(b.topk(b.len()).iter()) {
        if pa != pb {
            return Some(format!("page order diverges at {pa} vs {pb}"));
        }
        if sa.quality.to_bits() != sb.quality.to_bits()
            || sa.pagerank.to_bits() != sb.pagerank.to_bits()
            || sa.trend != sb.trend
        {
            return Some(format!("score bits differ for {pa}"));
        }
    }
    None
}

/// `None` when `view` serves exactly `report`'s rows (the served scores
/// are what a cold recompute of the same window gives).
pub fn store_vs_report(view: &ShardView, report: &PipelineReport) -> Option<String> {
    if view.len() != report.pages.len() {
        return Some(format!(
            "store serves {} pages, cold report has {}",
            view.len(),
            report.pages.len()
        ));
    }
    for (i, page) in report.pages.iter().enumerate() {
        let Some(s) = view.score(*page) else {
            return Some(format!("{page} missing from the store"));
        };
        if s.quality.to_bits() != report.estimates[i].to_bits()
            || s.pagerank.to_bits() != report.current[i].to_bits()
            || s.trend != report.trends[i]
        {
            return Some(format!(
                "served scores of {page} differ from a cold recompute"
            ));
        }
    }
    None
}

fn trend_wire(t: Trend) -> &'static str {
    match t {
        Trend::Increasing => "increasing",
        Trend::Decreasing => "decreasing",
        Trend::Oscillating => "oscillating",
        Trend::Flat => "flat",
    }
}

/// The exact `score` response line for a page `view` serves.
fn expected_score_line(view: &ShardView, page: u64) -> Option<String> {
    let s = view.score(PageId(page))?;
    Some(format!(
        "{{\"ok\":true,\"page\":{page},\"quality\":{},\"pagerank\":{},\"trend\":\"{}\",\"generation\":{}}}",
        s.quality,
        s.pagerank,
        trend_wire(s.trend),
        view.generation()
    ))
}

/// Compare one raw `score` response with the store, byte for byte.
pub fn check_score_exact(line: &str, view: &ShardView, page: u64) -> Result<(), String> {
    match expected_score_line(view, page) {
        Some(want) if want == line => Ok(()),
        Some(want) => Err(format!("score {page}: got {line:?}, store says {want:?}")),
        None => Err(format!("score {page}: page not in the store")),
    }
}

/// All numbers following `"key":` in a flat JSON line.
fn numbers_after<'a>(line: &'a str, key: &'a str) -> impl Iterator<Item = Option<f64>> + 'a {
    let pat = format!("\"{key}\":");
    let mut rest = line;
    std::iter::from_fn(move || {
        let at = rest.find(&pat)?;
        rest = &rest[at + pat.len()..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].parse::<f64>().ok())
    })
}

fn first_u64(line: &str, key: &str) -> Result<u64, String> {
    match numbers_after(line, key).next() {
        Some(Some(v)) if v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
        _ => Err(format!("no integer {key:?} in {line:?}")),
    }
}

/// Structural check of a `score` response served beside refreshes
/// (the store moves, so the values are not pinned): `ok`, the page
/// asked for, finite scores. Returns the generation it was read at.
pub fn check_score_shape(line: &str, page: u64) -> Result<u64, String> {
    if !line.starts_with("{\"ok\":true,") {
        return Err(format!("score {page}: not ok: {line:?}"));
    }
    if first_u64(line, "page")? != page {
        return Err(format!("score {page}: answered for another page: {line:?}"));
    }
    for key in ["quality", "pagerank"] {
        match numbers_after(line, key).next() {
            Some(Some(v)) if v.is_finite() => {}
            _ => return Err(format!("score {page}: bad {key} in {line:?}")),
        }
    }
    first_u64(line, "generation")
}

/// Structural check of a `topk k` response: `ok`, exactly
/// `min(k, served)` rows, qualities sorted descending. Returns the
/// generation it was read at.
pub fn check_topk_shape(line: &str, k: usize, served: usize) -> Result<u64, String> {
    if !line.starts_with("{\"ok\":true,") {
        return Err(format!(
            "topk {k}: not ok: {:?}",
            &line[..line.len().min(120)]
        ));
    }
    let want = k.min(served);
    if first_u64(line, "k")? as usize != want {
        return Err(format!("topk {k}: header k is not {want}"));
    }
    let mut rows = 0usize;
    let mut prev = f64::INFINITY;
    for q in numbers_after(line, "quality") {
        let q = q.ok_or_else(|| format!("topk {k}: unparsable quality in row {rows}"))?;
        if q.is_nan() || q > prev {
            return Err(format!("topk {k}: row {rows} quality {q} after {prev}"));
        }
        prev = q;
        rows += 1;
    }
    if rows != want {
        return Err(format!("topk {k}: {rows} rows, want {want}"));
    }
    first_u64(line, "generation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_core::{run_pipeline, PipelineConfig};
    use qrank_serve::ShardedStore;

    fn report() -> PipelineReport {
        let web = crate::gen::Web::grow(400, 11);
        run_pipeline(
            &web.fixed_series(&[0.7, 0.8, 0.9, 1.0]),
            &PipelineConfig::default(),
        )
        .unwrap()
    }

    fn published(report: &PipelineReport, shards: usize) -> std::sync::Arc<ShardView> {
        let store = ShardedStore::new(shards);
        store.publish_report(report, 1, 2.0);
        store.current()
    }

    #[test]
    fn digest_rejects_a_flipped_score_bit() {
        let a = report();
        let mut b = a.clone();
        assert_eq!(report_digest(&a), report_digest(&b));
        b.estimates[17] = f64::from_bits(b.estimates[17].to_bits() ^ 1);
        assert_ne!(report_digest(&a), report_digest(&b));
        let mut c = a.clone();
        c.selected[3] = !c.selected[3];
        assert_ne!(report_digest(&a), report_digest(&c));
    }

    #[test]
    fn store_comparison_rejects_a_flipped_score_bit() {
        let a = report();
        let mut b = a.clone();
        let va = published(&a, 1);
        assert_eq!(store_mismatch(&va, &published(&a, 1)), None);
        assert_eq!(store_vs_report(&va, &a), None);
        b.current[5] = f64::from_bits(b.current[5].to_bits() ^ 1);
        assert!(store_mismatch(&va, &published(&b, 1)).is_some());
        assert!(store_vs_report(&va, &b).is_some());
    }

    #[test]
    fn mass_check() {
        assert!(check_mass(&[1.0; 1000]).is_ok());
        let mut v = vec![1.0; 1000];
        v[0] = 1.01;
        assert!(check_mass(&v).is_err());
    }

    #[test]
    fn score_line_matches_the_server_and_rejects_corruption() {
        let r = report();
        let store = ShardedStore::new(1);
        store.publish_report(&r, 1, 2.0);
        let view = store.current();
        let metrics = qrank_serve::Metrics::new();
        let cache = parking_lot::Mutex::new(qrank_serve::LruCache::new(4));
        for page in [0u64, 7, 399] {
            let line =
                qrank_serve::handle_request(&format!("score {page}"), &store, &metrics, &cache);
            check_score_exact(&line, &view, page).unwrap();
            assert_eq!(check_score_shape(&line, page), Ok(1));
            // one digit off, a truncated line, the wrong page
            let corrupt = line.replacen("\"quality\":", "\"quality\":1", 1);
            assert!(check_score_exact(&corrupt, &view, page).is_err());
            assert!(check_score_exact(&line[..line.len() - 1], &view, page).is_err());
            assert!(check_score_exact(&line, &view, page + 1).is_err());
            assert!(check_score_shape(&line, page + 1).is_err());
        }
        let err = qrank_serve::handle_request("score 400", &store, &metrics, &cache);
        assert!(check_score_exact(&err, &view, 400).is_err());
        assert!(check_score_shape(&err, 400).is_err());
    }

    #[test]
    fn topk_line_matches_the_server_and_rejects_corruption() {
        let r = report();
        let store = ShardedStore::new(4);
        store.publish_report(&r, 3, 2.0);
        let metrics = qrank_serve::Metrics::new();
        let cache = parking_lot::Mutex::new(qrank_serve::LruCache::new(4));
        let line = qrank_serve::handle_request("topk 25", &store, &metrics, &cache);
        assert_eq!(check_topk_shape(&line, 25, 400), Ok(3));
        // asking for more than is served yields every page
        let all = qrank_serve::handle_request("topk 1000", &store, &metrics, &cache);
        assert_eq!(check_topk_shape(&all, 1000, 400), Ok(3));
        assert!(check_topk_shape(&line, 24, 400).is_err());
        // swap the first two rows' order by corrupting the first quality
        let first = numbers_after(&line, "quality").next().unwrap().unwrap();
        let corrupt = line.replacen(&format!("\"quality\":{first}"), "\"quality\":-1", 1);
        assert!(check_topk_shape(&corrupt, 25, 400).is_err());
        // drop a row
        let cut = line.rfind(",{\"page\"").unwrap();
        let short = format!("{}]}}", &line[..cut]);
        assert!(check_topk_shape(&short, 25, 400).is_err());
        let err = qrank_serve::handle_request("topk 0", &store, &metrics, &cache);
        assert!(check_topk_shape(&err, 1, 400).is_err());
    }
}
