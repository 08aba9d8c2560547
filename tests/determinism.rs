//! Cross-thread-count determinism: the engine's contract is that
//! `threads` is purely a wall-clock knob. The same seed must produce a
//! **byte-identical** serialized dataset and identical per-server reports
//! at every thread count.

use streamlab::{ObsOptions, Simulation, SimulationConfig};

fn run_serialized(seed: u64, threads: usize) -> (String, String) {
    let mut cfg = SimulationConfig::tiny(seed);
    cfg.threads = threads;
    let out = Simulation::new(cfg).run().expect("run");
    let dataset = serde_json::to_string(&out.dataset).expect("serialize dataset");
    let servers = serde_json::to_string(&out.servers).expect("serialize servers");
    (dataset, servers)
}

/// Run instrumented and serialize the deterministic metrics block — the
/// exact bytes `streamlab run --metrics-out` writes (modulo pretty-printing,
/// which is itself deterministic).
fn run_metrics_serialized(seed: u64, threads: usize) -> String {
    let mut cfg = SimulationConfig::tiny(seed);
    cfg.threads = threads;
    let out = Simulation::new(cfg)
        .run_observed(ObsOptions::default())
        .expect("run");
    let metrics = out.metrics.expect("observed run must carry metrics");
    serde_json::to_string(&metrics.sim).expect("serialize sim metrics")
}

#[test]
fn thread_counts_1_2_4_8_are_byte_identical() {
    let (dataset_1, servers_1) = run_serialized(2016, 1);
    for threads in [2, 4, 8] {
        let (dataset_n, servers_n) = run_serialized(2016, threads);
        assert!(
            dataset_1 == dataset_n,
            "dataset bytes diverge between threads=1 and threads={threads}"
        );
        assert!(
            servers_1 == servers_n,
            "server reports diverge between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn parallel_runs_are_reproducible_run_to_run() {
    let a = run_serialized(7, 4);
    let b = run_serialized(7, 4);
    assert!(a == b, "two threads=4 runs of the same seed diverge");
}

#[test]
fn sim_metrics_are_byte_identical_across_thread_counts() {
    let metrics_1 = run_metrics_serialized(2016, 1);
    for threads in [2, 4, 8] {
        let metrics_n = run_metrics_serialized(2016, threads);
        assert!(
            metrics_1 == metrics_n,
            "sim metrics bytes diverge between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn sim_metrics_are_reproducible_run_to_run() {
    let a = run_metrics_serialized(7, 4);
    let b = run_metrics_serialized(7, 4);
    assert!(
        a == b,
        "two observed threads=4 runs of the same seed diverge"
    );
}

/// The acceptance scenario: server restarts, a whole-PoP outage and a
/// loss burst, all active inside the tiny 4 h window.
fn faulted_config(seed: u64, threads: usize) -> SimulationConfig {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/faults_outage_restart.json"
    );
    let mut cfg = SimulationConfig::tiny(seed);
    cfg.threads = threads;
    cfg.faults = streamlab::faults::FaultScenario::from_json_file(path).expect("scenario parses");
    cfg
}

fn run_faulted_serialized(seed: u64, threads: usize) -> (String, String, String) {
    let out = Simulation::new(faulted_config(seed, threads))
        .run_observed(ObsOptions::default())
        .expect("faulted run");
    let dataset = serde_json::to_string(&out.dataset).expect("serialize dataset");
    let servers = serde_json::to_string(&out.servers).expect("serialize servers");
    let metrics =
        serde_json::to_string(&out.metrics.expect("metrics").sim).expect("serialize sim metrics");
    (dataset, servers, metrics)
}

#[test]
fn faulted_runs_are_byte_identical_across_thread_counts() {
    let (dataset_1, servers_1, metrics_1) = run_faulted_serialized(2016, 1);
    // The scenario actually fired: retries, failovers and restarts all
    // show up in the deterministic metrics block.
    for key in ["server_restarts", "request_retries", "failovers"] {
        let needle = format!("\"{key}\":0");
        assert!(
            !metrics_1.contains(&needle),
            "expected nonzero {key} in {metrics_1}"
        );
    }
    for threads in [2, 4, 8] {
        let (dataset_n, servers_n, metrics_n) = run_faulted_serialized(2016, threads);
        assert!(
            dataset_1 == dataset_n,
            "faulted dataset bytes diverge between threads=1 and threads={threads}"
        );
        assert!(
            servers_1 == servers_n,
            "faulted server reports diverge between threads=1 and threads={threads}"
        );
        assert!(
            metrics_1 == metrics_n,
            "faulted sim metrics diverge between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn faulted_runs_are_reproducible_run_to_run() {
    let a = run_faulted_serialized(7, 4);
    let b = run_faulted_serialized(7, 4);
    assert!(
        a == b,
        "two faulted threads=4 runs of the same seed diverge"
    );
}
