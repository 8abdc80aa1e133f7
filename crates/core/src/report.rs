//! A [`PipelineReport`]'s per-page rows as a TSV table — what
//! `qrank estimate --out` writes.

use crate::PipelineReport;

/// Render the per-page rows as TSV (header included), in page order.
pub fn render_tsv(report: &PipelineReport) -> String {
    let mut out = String::from(
        "page\ttrend\tselected\tcurrent\testimate\tfuture\terr_estimate\terr_current\n",
    );
    for i in 0..report.pages.len() {
        out.push_str(&format!(
            "{}\t{:?}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            report.pages[i].0,
            report.trends[i],
            report.selected[i],
            report.current[i],
            report.estimates[i],
            report.future[i],
            report.err_estimate[i],
            report.err_current[i],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_pipeline, PipelineConfig, PopularityMetric};
    use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};

    fn report() -> PipelineReport {
        let pages: Vec<PageId> = (0..4).map(PageId).collect();
        let mut s = SnapshotSeries::new();
        for (i, extra) in [0usize, 1, 2, 3].iter().enumerate() {
            let mut edges = vec![(0u32, 1u32), (1, 0), (2, 0)];
            for k in 0..*extra {
                edges.push((k as u32, 3));
            }
            s.push(
                Snapshot::new(i as f64, CsrGraph::from_edges(4, &edges), pages.clone()).unwrap(),
            )
            .unwrap();
        }
        run_pipeline(
            &s,
            &PipelineConfig {
                metric: PopularityMetric::InDegree,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn tsv_has_one_row_per_page_plus_header() {
        let r = report();
        let tsv = render_tsv(&r);
        assert_eq!(tsv.lines().count(), r.pages.len() + 1);
        assert!(tsv.starts_with("page\ttrend"));
        // the growing page is classified and serialized
        assert!(tsv.contains("Increasing"));
    }
}
