//! The figure, chaos, ablation and perf binaries reject bad input loudly:
//! a misspelled flag, a missing or malformed value, a zero count or an
//! unknown ablation exits 2 with the known flags instead of panicking or
//! running with the input silently ignored, while valid invocations
//! still succeed.

use std::process::{Command, Output};

fn bin(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .expect("the binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_input_exits_2_with_the_known_flags() {
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    let chaos = env!("CARGO_BIN_EXE_chaos");
    let ablations = env!("CARGO_BIN_EXE_ablations");
    let perf = env!("CARGO_BIN_EXE_perf");
    for (path, args, message) in [
        (fig6, &["--cnfigs", "2"][..], "unknown flag --cnfigs"),
        (fig6, &["--configs", "x"], "invalid value for --configs: x"),
        (fig6, &["--configs"], "--configs requires a value"),
        (fig6, &["--configs", "0"], "--configs must be at least 1"),
        (fig2, &["--configs", "10"], "unknown flag --configs"),
        (fig2, &["--threads", "2"], "unknown flag --threads"),
        (chaos, &["--sed", "3"], "unknown flag --sed"),
        (chaos, &["--configs", "0"], "--configs must be at least 1"),
        (ablations, &["--whch", "objective"], "unknown flag --whch"),
        (ablations, &["--which", "bogus"], "valid: all objective"),
        (
            ablations,
            &["--configs", "0"],
            "--configs must be at least 1",
        ),
        (perf, &["--reps"], "--reps requires a value"),
        (perf, &["--bogus"], "unknown flag --bogus"),
        (perf, &["--reps", "0"], "--reps must be at least 1"),
    ] {
        let out = bin(path, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{path} {args:?}: {err}");
        assert!(err.contains(message), "{path} {args:?}: {err}");
        assert!(err.contains("known flags: --"), "{path} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{path} {args:?}: {err}");
    }
}

#[test]
fn valid_invocations_still_succeed() {
    for (path, args) in [
        (env!("CARGO_BIN_EXE_fig2"), &["--seed", "3"][..]),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--configs", "1", "--threads", "1"],
        ),
    ] {
        let out = bin(path, args);
        assert!(out.status.success(), "{path} {args:?}: {}", stderr(&out));
    }
}
