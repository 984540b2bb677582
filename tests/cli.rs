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

/// Every numeric flag that `parse_common` range-checks is a usage error
/// (exit 2) that names the bad value and prints no tables.
#[test]
fn run_rejects_invalid_scale() {
    let cases = [
        ("--scale", "NaN", "scale NaN must be finite and > 0"),
        ("--scale", "-1", "scale -1 must be finite and > 0"),
        ("--scale", "0", "scale 0 must be finite and > 0"),
        ("--secs", "0", "secs 0 must be > 0"),
        ("--runs", "0", "runs 0 must be > 0"),
    ];
    for (flag, value, message) in cases {
        let out = cli()
            .args(["run", "pplive", "--secs", "1", flag, value])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} must be a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(message),
            "{flag} {value}: unexpected stderr {err}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} still printed tables");
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
    assert!(!err.contains("timing:"), "phase timings printed without --profile");

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

#[test]
fn run_profile_prints_phase_timings() {
    let profile =
        std::env::temp_dir().join(format!("netaware_cli_profile_{}.json", std::process::id()));
    let out = cli()
        .args(["run", "tvants", "--scale", "0.02", "--secs", "10", "--profile"])
        .arg(&profile)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.lines().any(|l| l.starts_with("timing: analysis.sweep")),
        "no analysis.sweep timing in {err}"
    );
    assert!(
        err.lines().any(|l| l.starts_with("profile written to") && l.contains("peak heap")),
        "no profile line with the peak heap in {err}"
    );

    // `obs profile` renders what `--profile` wrote.
    let out = cli().arg("obs").arg("profile").arg(&profile).output().expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout);
    for span in ["swarm.dispatch", "analysis.sweep"] {
        assert!(
            table.lines().any(|l| l.trim_start().starts_with(span)),
            "no {span} row in {table}"
        );
    }

    // A file in the old report format is an error naming the file.
    std::fs::write(&profile, r#"{"schema":1,"meta":{"scenario":"tvants_clean"}}"#).unwrap();
    let out = cli().arg("obs").arg("profile").arg(&profile).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains(&*profile.to_string_lossy()), "file not named in {err}");
    assert!(!err.contains("panicked"), "obs profile panicked: {err}");
    let _ = std::fs::remove_file(&profile);
}

/// A flag the subcommand does not read is a usage error that names it,
/// raised before anything runs, instead of being silently ignored.
#[test]
fn subcommands_reject_flags_they_do_not_read() {
    let tmp = std::env::temp_dir().join(format!("netaware_cli_unread_{}", std::process::id()));
    let tmp = tmp.to_string_lossy().into_owned();
    let small = ["--scale", "0.02", "--secs", "5"];
    let cases: [(&[&str], &str); 5] = [
        (&["suite", "--profile", &tmp], "--profile"),
        (&["nextgen", "--json", &tmp], "--json"),
        (&["replicate", "tvants", "--runs", "1", "--json", &tmp], "--json"),
        (&["suite", "--spill", &tmp], "--spill"),
        (&["run", "tvants", "--csv", &tmp], "--csv"),
    ];
    for (args, flag) in cases {
        let out = cli().args(args).args(small).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let message = format!("{} does not take {flag}", args[0]);
        assert!(err.contains(&message), "{args:?}: unexpected stderr {err}");
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting {flag}");
    }
    assert!(!std::path::Path::new(&tmp).exists(), "a rejected flag wrote {tmp}");
}

/// A hostile nesting depth in a JSON input is a parse error, not a
/// stack overflow that kills the process.
#[test]
fn deeply_nested_json_is_rejected() {
    let deep =
        std::env::temp_dir().join(format!("netaware_cli_deep_{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    let cases: [(&[&str], i32); 2] = [
        (&["run", "pplive", "--faults"], 2),
        (&["matrix", "--config"], 1),
    ];
    for (args, code) in cases {
        let out = cli().args(args).arg(&deep).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.code().is_some(), "{args:?} killed by a signal: {err}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(err.contains("nesting deeper than"), "{args:?}: unexpected stderr {err}");
    }
    let _ = std::fs::remove_file(&deep);
}

/// Ordinary mistakes (an unknown app, an unwritable output path, a
/// missing capture) exit with a code and a message naming the culprit.
#[test]
fn ordinary_mistakes_exit_without_panicking() {
    let dir = std::env::temp_dir().join(format!("netaware_cli_bogus_{}", std::process::id()));
    let dir = dir.to_string_lossy().into_owned();
    let json = "/nonexistent/dir/o.json";
    let cases: [(&[&str], i32, &str); 3] = [
        (&["export", "--dir", &dir, "--app", "bogus"], 2, "unknown app bogus"),
        (&["run", "tvants", "--scale", "0.02", "--secs", "5", "--json", json], 1, json),
        (&["analyze", "--probe", "10.0.0.1", "/missing.pcap"], 1, "/missing.pcap"),
    ];
    for (args, code, message) in cases {
        let out = cli().args(args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: unexpected stderr {err}");
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    }
}
