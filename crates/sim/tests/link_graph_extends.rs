//! The link graph of a crawl schedule pays for what changed: each
//! materialization extends the one before it, so over a monotone
//! schedule every event of the link log is sorted exactly once. Counted
//! through the observability registry, which is process-global — hence
//! a test binary of its own with a single test.

use qrank_sim::{QualityDist, SimConfig, World};

#[test]
fn a_monotone_schedule_sorts_every_event_once() {
    let cfg = SimConfig {
        num_users: 300,
        num_sites: 4,
        visit_ratio: 2.0,
        page_birth_rate: 40.0,
        quality_dist: QualityDist::Uniform { lo: 0.1, hi: 0.9 },
        // removes in the log, so a remove of a base edge is exercised
        forget_rate: 0.5,
        dt: 0.05,
        seed: 21,
        ..Default::default()
    };
    let schedule = [1.0, 1.5, 2.0, 3.0];
    let sorted = || {
        qrank_obs::global()
            .snapshot()
            .counter("sim.link_graph.events_sorted")
            .unwrap_or(0)
    };
    let copied = || {
        qrank_obs::global()
            .snapshot()
            .counter("sim.link_graph.edges_copied")
            .unwrap_or(0)
    };
    qrank_obs::set_enabled(true);

    // the reference: one world run to the end, its graph built once, from
    // nothing — which sorts the whole log
    let mut reference = World::bootstrap(cfg).expect("bootstrap");
    reference.run_until(3.0);
    let whole = reference.link_graph_arc(3.0);
    let log_len = sorted();
    assert!(log_len > 1_000, "log of {log_len} events");
    assert_eq!(copied(), 0, "nothing to extend on a first call");

    let mut world = World::bootstrap(cfg).expect("bootstrap");
    let mut edges_before = Vec::new();
    let mut last = None;
    for t in schedule {
        world.run_until(t);
        let g = world.link_graph_arc(t);
        // the memoized answer costs nothing
        let again = world.link_graph_arc(t);
        assert!(std::sync::Arc::ptr_eq(&g, &again));
        edges_before.push(g.num_edges() as u64);
        last = Some(g);
    }
    assert_eq!(sorted() - log_len, log_len, "every event sorted once");
    assert_eq!(
        copied(),
        edges_before[..3].iter().sum::<u64>(),
        "each graph but the last was merged through once"
    );
    assert_eq!(
        last.as_deref(),
        Some(&*whole),
        "extended == built from nothing"
    );

    // an earlier time than the cached graph's cannot extend it: the
    // prefix is sorted again, from nothing
    let (sorted_before, copied_before) = (sorted(), copied());
    let early = world.link_graph_arc(1.0);
    assert_eq!(early.num_edges() as u64, edges_before[0]);
    assert!(sorted() > sorted_before);
    assert_eq!(copied(), copied_before);
    qrank_obs::set_enabled(false);
}
