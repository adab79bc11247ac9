//! The `report` binary takes no arguments: anything on its command line is
//! a usage error (exit 2, one-line usage on stderr) caught before any table
//! runs, so a mistyped or retired flag can never silently run the report.

use std::process::Command;

#[test]
fn report_rejects_every_argument_before_running_a_table() {
    for arg in ["--perf-only", "--skip-perf", "--skip-pref", "extra"] {
        let output = Command::new(env!("CARGO_BIN_EXE_report"))
            .arg(arg)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("report binary runs");
        assert_eq!(output.status.code(), Some(2), "argument {arg:?}");
        assert!(output.stdout.is_empty(), "no table may run for {arg:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        assert_eq!(stderr.lines().count(), 1, "one-line usage: {stderr:?}");
        assert!(stderr.contains("usage: report"), "{stderr:?}");
    }
}
