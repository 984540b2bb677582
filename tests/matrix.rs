//! Determinism of the scenario-matrix runner: the cross-scenario
//! report must be byte-identical across repeat runs, and the committed
//! CI config must stay valid.

use netaware::testbed::{run_matrix, FaultSpec, MatrixConfig, SessionSpec};
use netaware::{ChurnPlan, LinkFaultPlan, SessionModel};

fn tiny_config() -> MatrixConfig {
    MatrixConfig {
        seed: 321,
        duration_us: 10_000_000,
        profiles: vec!["sopcast".into(), "epidemic-rp".into()],
        scales: vec![0.02],
        sessions: vec![
            SessionSpec {
                name: "baseline".into(),
                churn: Some(ChurnPlan::preset()),
                model: None,
            },
            SessionSpec {
                name: "flashcrowd".into(),
                churn: Some(ChurnPlan::preset()),
                model: Some(SessionModel::flashcrowd_preset()),
            },
        ],
        faults: vec![FaultSpec {
            name: "clean".into(),
            link: LinkFaultPlan::default(),
        }],
    }
}

#[test]
fn report_is_byte_identical_across_runs() {
    let cfg = tiny_config();
    let first = run_matrix(&cfg, None).expect("first run");
    let again = run_matrix(&cfg, None).expect("repeat run");
    assert_eq!(
        first.to_json(),
        again.to_json(),
        "same-seed matrix reports diverged"
    );
    assert_eq!(first.to_markdown(), again.to_markdown());
    assert_eq!(first.cells.len(), 4);
}

#[test]
fn session_models_and_profiles_shape_the_cells() {
    let report = run_matrix(&tiny_config(), None).expect("matrix runs");
    // Sweep order: profiles outermost, sessions inner.
    let labels: Vec<&str> = report.cells.iter().map(|c| c.cell.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "sopcast/x0.02/baseline/clean",
            "sopcast/x0.02/flashcrowd/clean",
            "epidemic-rp/x0.02/baseline/clean",
            "epidemic-rp/x0.02/flashcrowd/clean",
        ]
    );
    for c in &report.cells {
        assert!(c.continuity > 0.3, "{} starved", c.cell);
        assert!(c.peers_departed > 0, "{} saw no churn", c.cell);
        let pushes = c.profile.starts_with("Epidemic");
        assert_eq!(
            c.chunks_pushed > 0,
            pushes,
            "{}: pushed={} for profile {}",
            c.cell,
            c.chunks_pushed,
            c.profile
        );
    }
    // The heavy-tailed/zapping model visibly reshapes churn vs baseline.
    assert_ne!(
        report.cells[0].peers_departed, report.cells[1].peers_departed,
        "flash-crowd session model left the churn process untouched"
    );
}

#[test]
fn streamed_matrix_leaves_corpora_and_matches_in_memory() {
    let dir = std::env::temp_dir().join(format!("netaware_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = tiny_config();
    cfg.profiles = vec!["tvants".into()];
    cfg.sessions.truncate(1);
    let mem = run_matrix(&cfg, None).expect("in-memory run");
    let streamed = run_matrix(&cfg, Some(&dir)).expect("streamed run");
    assert_eq!(mem.to_json(), streamed.to_json());
    let cell_dir = dir.join("tvants_x0.02_baseline_clean");
    assert!(
        cell_dir.join("manifest.json").is_file(),
        "per-cell corpus missing at {}",
        cell_dir.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_ci_config_is_valid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/matrix-small.json");
    let body = std::fs::read_to_string(path).expect("ci/matrix-small.json readable");
    let cfg = MatrixConfig::from_json(&body).expect("ci/matrix-small.json parses and validates");
    assert_eq!(cfg.profiles.len(), 2, "CI matrix should stay small");
    assert_eq!(cfg.sessions.len(), 2);
    assert!(
        cfg.scales.iter().all(|&s| s <= 0.05),
        "CI matrix must stay scaled down"
    );
    assert!(cfg.duration_us <= 20_000_000);
}
