//! The `wadc` binary rejects bad input loudly: a misspelled flag or an
//! invalid configuration exits non-zero with a message instead of
//! silently running defaults or panicking, while valid invocations still
//! succeed.

use std::process::{Command, Output};

fn wadc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wadc"))
        .args(args)
        .output()
        .expect("the wadc binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn misspelled_flags_exit_2_and_list_the_known_flags() {
    for args in [
        &[
            "run",
            "--servres",
            "4",
            "--algoritm",
            "local",
            "--images",
            "2",
        ][..],
        &["report", "--sever", "4"],
        &["chaos", "--los", "0.1"],
        &["study", "--config", "1"],
        &["verify", "--quik"],
    ] {
        let out = wadc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
        assert!(err.contains("known flags:"), "{args:?}: {err}");
    }
}

#[test]
fn invalid_configurations_exit_2_with_the_validation_message() {
    for (args, message) in [
        (&["run", "--servers", "1"][..], "need at least two servers"),
        (&["run", "--images", "0"], "zero-image workload"),
        (
            &["run", "--algorithm", "global", "--period-mins", "0"],
            "zero re-planning period",
        ),
        (&["plan", "--servers", "1"], "need at least two servers"),
        (&["study", "--configs", "0"], "--configs must be at least 1"),
    ] {
        let out = wadc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn valid_invocations_still_succeed() {
    for args in [
        &[
            "run",
            "--servers",
            "2",
            "--images",
            "2",
            "--algorithm",
            "local",
            "--extra-candidates",
            "1",
            "--json",
        ][..],
        &["chaos", "--servers", "2", "--images", "2", "--loss", "0.1"],
        &["plan", "--servers", "3"],
    ] {
        let out = wadc(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
}
