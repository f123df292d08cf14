//! The seed argument is honoured: one seed always gives the same
//! simulated metrics and per-layer counts, traced or not, and another
//! seed gives different ones.

use nvbench::{run, Metric, Outcome, Workload};

fn sim_metrics(out: &Outcome) -> Vec<Metric> {
    out.metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_"))
        .cloned()
        .collect()
}

fn seed_is_honoured(w: Workload) {
    let a = run(w, 7, 1, false);
    let again = run(w, 7, 1, false);
    let traced = run(w, 7, 1, true);
    let other = run(w, 8, 1, false);
    for out in [&a, &again, &traced, &other] {
        assert!(out.correct, "{}: {:?}", w.name(), out.problems);
    }
    assert_eq!(sim_metrics(&a).len(), 3);
    assert_eq!(sim_metrics(&a), sim_metrics(&again), "{}", w.name());
    assert_eq!(a.sim_digest, again.sim_digest, "{}", w.name());
    // The traced run re-checks its own pass against the untraced one; the
    // digest covers every per-layer count as well.
    assert_eq!(a.sim_digest, traced.sim_digest, "{}", w.name());
    assert_ne!(a.sim_digest, other.sim_digest, "{}", w.name());
}

#[test]
fn cached_read_honours_seed() {
    seed_is_honoured(Workload::CachedRead);
}

#[test]
fn uncached_rw_honours_seed() {
    seed_is_honoured(Workload::UncachedRw);
}

#[test]
fn perbank_mixed_honours_seed() {
    seed_is_honoured(Workload::PerbankMixed);
}

#[test]
fn crash_sweep_honours_seed() {
    seed_is_honoured(Workload::CrashSweep);
}
