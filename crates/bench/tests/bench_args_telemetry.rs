//! Every experiment binary that parses `BenchArgs` honours
//! `--telemetry-out`: it exits 0 and leaves a complete, schema-valid trace
//! whose producer is the binary's name.

use std::process::Command;

/// The binaries that parse `BenchArgs`, with their built paths.
const BINARIES: [(&str, &str); 12] = [
    ("fig_elimination", env!("CARGO_BIN_EXE_fig_elimination")),
    ("fig_kappa", env!("CARGO_BIN_EXE_fig_kappa")),
    ("fig_lottery", env!("CARGO_BIN_EXE_fig_lottery")),
    ("fig_mode", env!("CARGO_BIN_EXE_fig_mode")),
    ("fig_orientation", env!("CARGO_BIN_EXE_fig_orientation")),
    ("fig_recovery", env!("CARGO_BIN_EXE_fig_recovery")),
    ("fig_scaling", env!("CARGO_BIN_EXE_fig_scaling")),
    ("fig_segments", env!("CARGO_BIN_EXE_fig_segments")),
    ("fig_states", env!("CARGO_BIN_EXE_fig_states")),
    ("fig_token", env!("CARGO_BIN_EXE_fig_token")),
    ("fig_worstcase", env!("CARGO_BIN_EXE_fig_worstcase")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
];

#[test]
fn every_bench_args_binary_writes_a_complete_trace() {
    for (name, exe) in BINARIES {
        let path = std::env::temp_dir().join(format!(
            "ssle-bench-{name}-{}.trace.ndjson",
            std::process::id()
        ));
        let status = Command::new(exe)
            .args(["--sizes", "8", "--trials", "1", "--json", "--telemetry-out"])
            .arg(&path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("binary runs");
        assert!(status.success(), "{name}: {status}");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: no trace at {}: {e}", path.display()));
        let _ = std::fs::remove_file(&path);
        let stats = ssle_telemetry::validate_stream(&text)
            .unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
        assert!(stats.complete, "{name}: the trace was never finished");
        let digest = ssle_telemetry::TraceDigest::from_stream(&text).expect("digestible");
        assert_eq!(digest.producer, name);
    }
}

#[test]
fn an_uncreatable_trace_file_exits_non_zero() {
    let status = Command::new(env!("CARGO_BIN_EXE_fig_states"))
        .args(["--telemetry-out", "/nonexistent-dir/trace.ndjson"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("binary runs");
    assert_eq!(status.code(), Some(1));
}
