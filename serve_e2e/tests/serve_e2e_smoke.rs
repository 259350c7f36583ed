//! Runs every workload at smoke size, untraced and traced, in-process:
//! no operation may fail, Ideal answers must all be exact, the traced
//! run's twins must replay the real completions bit for bit, and the
//! answer checksums must match the committed fixture.

use ferex_serve_e2e::report::parse_checksums;
use ferex_serve_e2e::workload::{run, Config, Length, Workload};

const FIXTURE: &str = include_str!("../fixtures/serve_e2e_checksums.txt");

#[test]
fn every_workload_is_correct_and_matches_its_fixture_checksum() {
    let (seed, sums) = parse_checksums(FIXTURE).expect("the fixture parses");
    assert_eq!(sums.len(), Workload::ALL.len(), "the fixture covers every workload");
    for (w, want) in sums {
        let plain = run(w, Config { seed, length: Length::Smoke, trace: false }).expect("runs");
        let traced = run(w, Config { seed, length: Length::Smoke, trace: true }).expect("runs");
        for r in [&plain, &traced] {
            assert_eq!(r.error_rate(), 0.0, "{}: failed operations", w.name());
            assert!(r.answers > 0 && r.correct(), "{}: recall {}", w.name(), r.recall_at_1());
            if w.ideal() {
                assert_eq!(r.recall_at_1(), 1.0, "{}: inexact Ideal answer", w.name());
            }
        }
        assert_eq!(traced.twin_mismatches, 0, "{}: twin replay diverged", w.name());
        assert!(traced.trace.as_ref().is_some_and(|t| !t.spans().is_empty()));
        assert_eq!(traced.checksum, plain.checksum, "{}: tracing changed an answer", w.name());
        assert_eq!(format!("{:016x}", plain.checksum), want, "{}: checksum drifted", w.name());
    }
}
