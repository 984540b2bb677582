//! Smoke tests of the `netaware-cli` binary (built by cargo and located
//! via `CARGO_BIN_EXE_netaware-cli`).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netaware-cli"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = cli().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn testbed_prints_table1() {
    let out = cli().arg("testbed").output().expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TABLE I"));
    assert!(s.contains("PoliTO"));
    assert!(s.contains("DSL 22/1.8"));
}

#[test]
fn run_produces_tables_and_json() {
    let json = std::env::temp_dir().join("netaware_cli_test.json");
    let out = cli()
        .args([
            "run",
            "tvants",
            "--scale",
            "0.02",
            "--secs",
            "30",
            "--seed",
            "9",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TABLE IV"));
    assert!(s.contains("friendliness:"));
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let first = &parsed.as_seq().expect("top-level array")[0];
    let app = serde_json::value::field(first.as_map().expect("object"), "app");
    assert_eq!(app.as_str(), Some("TVAnts"));
    let _ = std::fs::remove_file(&json);
}

#[test]
fn run_rejects_unknown_app() {
    let out = cli().args(["run", "napster"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown app"));
}

#[test]
fn run_rejects_invalid_scale() {
    for scale in ["NaN", "-1", "0"] {
        let out = cli()
            .args(["run", "pplive", "--scale", scale, "--secs", "1"])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--scale {scale} must be a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("scale {scale} must be finite and > 0")),
            "--scale {scale}: unexpected stderr {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "--scale {scale} still printed tables"
        );
    }
}

#[test]
fn run_obs_log_and_metrics_roundtrip() {
    let log = std::env::temp_dir().join("netaware_cli_obs.jsonl");
    let metrics = std::env::temp_dir().join("netaware_cli_metrics.json");
    let out = cli()
        .args(["run", "tvants", "--scale", "0.02", "--secs", "20", "--obs-log"])
        .arg(&log)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("event log written"));
    assert!(err.contains("metrics snapshot written"));

    // The event log is JSONL naming every instrumented layer.
    let body = std::fs::read_to_string(&log).unwrap();
    for target in ["swarm.", "stream.", "pass."] {
        assert!(
            body.contains(&format!("\"target\":\"{target}")),
            "no {target}* events in --obs-log output"
        );
    }

    // The metrics snapshot carries protocol and analysis counters.
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = serde_json::value::field(snap.as_map().expect("object"), "counters");
    let requested =
        serde_json::value::field(counters.as_map().expect("counters"), "proto.chunks_requested");
    assert!(requested.as_u64().is_some_and(|n| n > 0), "no chunks requested");

    // `obs summarize` renders the same log.
    let out = cli().arg("obs").arg("summarize").arg(&log).output().expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("top targets:"));
    assert!(s.contains("swarm.scheduling.chunk_sched"));
    assert!(s.contains("chunk-scheduler decisions:"));

    // A truncated log (mid-line cut) must fail loudly, not summarize
    // silently short.
    let cut = body.len() - 20;
    std::fs::write(&log, &body.as_bytes()[..cut]).unwrap();
    let out = cli().arg("obs").arg("summarize").arg(&log).output().expect("spawn");
    assert!(!out.status.success(), "truncated log summarized successfully");
    assert!(String::from_utf8_lossy(&out.stderr).contains("line"));

    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn obs_summarize_requires_file() {
    let out = cli().args(["obs", "summarize"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = cli()
        .args(["obs", "summarize", "/nonexistent/netaware.jsonl"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn export_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("netaware_cli_export");
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args(["export", "--scale", "0.02", "--secs", "20", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Pick one exported pcap and re-analyze it.
    let pcap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pcap"))
        .expect("an exported pcap");
    let probe = pcap.file_stem().unwrap().to_string_lossy().to_string();
    let out = cli()
        .args(["analyze", "--probe", &probe])
        .arg(&pcap)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TABLE IV"));
    assert!(s.contains("packets"));
    let _ = std::fs::remove_dir_all(&dir);
}
