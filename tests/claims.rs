//! The paper's claims as pinned verdicts: every row of `gdp_bench::CLAIMS`
//! is checked in process and through the `gdp` binary, and the two must
//! agree byte for byte.

use gdp::scenarios::{run_check, CheckVerdict, ExactCellVerdict};
use gdp_bench::CLAIMS;
use std::process::{Command, Stdio};

#[test]
fn every_claim_is_decided_as_pinned_in_process_and_by_the_binary() {
    for claim in CLAIMS {
        let command = claim.command();
        // The binary runs while the same check runs in process.
        let child = Command::new(env!("CARGO_BIN_EXE_gdp"))
            .args(command.split_whitespace().skip(1))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("gdp binary runs");
        let report = run_check(&claim.spec()).expect("claim cell builds");
        let exact = ExactCellVerdict::from_report(&report);
        assert_eq!(report.verdict(), claim.verdict, "{command}");
        assert!(
            (exact.progress_probability - claim.probability).abs() < 1e-9,
            "{command}: P = {}",
            exact.progress_probability
        );

        let output = child.wait_with_output().expect("gdp binary exits");
        let exit = match claim.verdict {
            CheckVerdict::Certified => 0,
            CheckVerdict::Violated => 1,
            CheckVerdict::Inconclusive => panic!("{command}: a claim row must be exact"),
        };
        assert_eq!(output.status.code(), Some(exit), "{command}");
        assert_eq!(
            String::from_utf8(output.stdout).expect("utf-8 stdout"),
            report.render(),
            "{command}"
        );
    }
}
