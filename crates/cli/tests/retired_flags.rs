//! Retired flags end the process with exit status 1 and a one-line
//! migration error, before any simulation runs.

use std::process::Command;

#[test]
fn retired_flags_exit_1_with_a_one_line_migration_error() {
    for (argv, error) in [
        (&["--threads", "2"][..], "error: --threads was removed"),
        (&["--threads=auto"], "error: --threads was removed"),
        (&["--threads"], "error: --threads was removed"),
        (
            &["trace", "--workload", "lu.B", "--threads", "1", "--json"],
            "error: --threads was removed",
        ),
        (&["--parallel"], "error: --parallel was removed"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cmcp-cli"))
            .args(argv)
            .output()
            .expect("the CLI starts");
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(first.starts_with(error), "{argv:?}: {first}");
        assert_eq!(
            lines.next(),
            Some(""),
            "{argv:?}: the error is one line, then the usage"
        );
    }
}
