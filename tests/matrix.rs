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

/// A lossy cell under churn reports what the faults cost: dropped
/// packets, re-queued requests and a worst probe no better than the
/// swarm-wide continuity.
#[test]
fn lossy_churned_cell_reports_drops_requeues_and_worst_probe() {
    let mut cfg = tiny_config();
    cfg.profiles = vec!["sopcast".into()];
    cfg.sessions.truncate(1);
    cfg.faults = vec![FaultSpec {
        name: "loss-5".into(),
        link: LinkFaultPlan {
            loss: 0.05,
            ..LinkFaultPlan::default()
        },
    }];
    let report = run_matrix(&cfg, None).expect("matrix runs");
    let c = &report.cells[0];
    assert_eq!(c.cell, "sopcast/x0.02/baseline/loss-5");
    assert!(c.packets_dropped > 0, "{}: no packet dropped", c.cell);
    assert!(c.requests_requeued > 0, "{}: no request re-queued", c.cell);
    assert!(
        c.worst_continuity <= c.continuity,
        "{}: worst probe {} above the swarm's {}",
        c.cell,
        c.worst_continuity,
        c.continuity
    );
    let md = report.to_markdown();
    let row = md
        .lines()
        .find(|l| l.starts_with("| sopcast/"))
        .expect("row");
    assert!(
        row.ends_with(&format!(
            "| {:.3} | {} | {} |",
            c.worst_continuity, c.packets_dropped, c.requests_requeued
        )),
        "{row}"
    );
}

#[test]
fn committed_ci_config_is_valid() {
    let read = |name: &str| {
        let path = format!("{}/ci/{name}", env!("CARGO_MANIFEST_DIR"));
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        MatrixConfig::from_json(&body).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let cfg = read("matrix-small.json");
    assert_eq!(cfg.profiles.len(), 2, "CI matrix should stay small");
    assert_eq!(cfg.sessions.len(), 2);
    assert!(
        cfg.scales.iter().all(|&s| s <= 0.05),
        "CI matrix must stay scaled down"
    );
    assert!(cfg.duration_us <= 20_000_000);

    // Ext. H's fault sweep: every registered profile, static and
    // churned, clean and at four loss rates.
    let sweep = read("fault-sweep.json");
    let every: Vec<String> = netaware::AppProfile::all()
        .into_iter()
        .map(|p| p.name)
        .collect();
    let named: Vec<String> = sweep
        .profiles
        .iter()
        .filter_map(|p| netaware::AppProfile::by_name(p).map(|p| p.name))
        .collect();
    assert_eq!(named, every);
    assert_eq!((sweep.sessions.len(), sweep.faults.len()), (2, 5));
}
