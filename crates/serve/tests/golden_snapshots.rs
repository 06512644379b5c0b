//! Golden-file snapshots of the metrics expositions: the serve counters
//! (JSON and Prometheus text) and the obs phase timers (Prometheus text).
//!
//! The snapshots pin the exact bytes external consumers parse — key order,
//! spacing, null-vs-zero, bucket layout. A deliberate format change is made
//! by regenerating: `XG_UPDATE_GOLDEN=1 cargo test -p xg-serve --test
//! golden_snapshots` and committing the diff.

use std::path::Path;
use xg_obs::{Phase, Registry};
use xg_serve::job::JobState;
use xg_serve::metrics::Metrics;

fn check(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("XG_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); regenerate with XG_UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        rendered,
        golden,
        "{name} drifted from its golden snapshot; if the change is deliberate, \
         regenerate with XG_UPDATE_GOLDEN=1 and commit the diff"
    );
}

/// A serve metrics registry with one of everything, built without any
/// wall-clock reads so the rendering is bit-stable.
fn serve_fixture() -> Metrics {
    use xg_comm::{OpKind, OpRecord};
    use xg_serve::admission::AdmitError;
    use xg_serve::batcher::FlushReason;
    use xg_sim::CgyroInput;

    let dims = CgyroInput::test_small().dims();
    let mut m = Metrics::default();
    m.on_submit();
    m.on_submit();
    m.on_reject(&AdmitError::Draining);
    m.on_dispatch(2, dims, FlushReason::Full);
    m.on_queue_latency_us(1_500);
    m.on_queue_latency_us(2_500);
    m.on_batch_traces(&[vec![
        OpRecord {
            op: OpKind::AllReduce,
            comm_label: "nv".into(),
            participants: 2,
            members: vec![0, 1],
            bytes: 128,
            phase: "str".into(),
            elapsed_us: 40,
        },
        OpRecord {
            op: OpKind::AllToAll,
            comm_label: "coll-ens".into(),
            participants: 2,
            members: vec![0, 1],
            bytes: 512,
            phase: "coll".into(),
            elapsed_us: 160,
        },
    ]]);
    m
}

/// An obs registry with fixed recordings (fed directly, bypassing the
/// env-gated free functions, so the fixture ignores `XGYRO_OBS`).
fn obs_fixture() -> Registry {
    let reg = Registry::default();
    reg.record_busy_us(Phase::Str, 100);
    reg.record_busy_us(Phase::Str, 300);
    reg.record_busy_us(Phase::Coll, 2_000);
    reg.record_comm_wait_us(Phase::Str, 40);
    reg.set_collision_kernel("avx2/t64");
    reg
}

#[test]
fn serve_metrics_json_matches_golden() {
    let by_state = [(JobState::Queued, 0), (JobState::Done, 2)];
    check("serve-metrics.json", &serve_fixture().to_json(&by_state));
}

#[test]
fn serve_metrics_prometheus_matches_golden() {
    let by_state = [(JobState::Queued, 0), (JobState::Done, 2)];
    let text = serve_fixture().to_prometheus(&by_state);
    xg_obs::expo::lint_prometheus(&text).expect("golden exposition must lint");
    check("serve-metrics.prom", &text);
}

#[test]
fn obs_metrics_prometheus_matches_golden() {
    let text = xg_obs::expo::to_prometheus(&obs_fixture());
    xg_obs::expo::lint_prometheus(&text).expect("golden exposition must lint");
    check("obs-metrics.prom", &text);
}
