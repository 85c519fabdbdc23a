//! Golden digest fixtures.
//!
//! A handful of small scenarios whose audit-log and result digests are
//! pinned under `tests/golden/digests.txt`. Any drift means the engine's
//! observable behaviour changed — either a real regression (most often
//! accidental nondeterminism) or an intentional change that must be
//! acknowledged by regenerating the fixture with
//! `wadc verify --print-golden`.

use wadc_core::engine::{Algorithm, RunResult};
use wadc_core::experiment::Experiment;
use wadc_sim::time::SimDuration;

use crate::determinism::RunDigests;

/// One pinned scenario.
pub struct GoldenCase {
    /// Stable fixture key.
    pub name: &'static str,
    run: fn() -> RunResult,
}

impl GoldenCase {
    /// Runs the scenario.
    pub fn run(&self) -> RunResult {
        (self.run)()
    }
}

/// The pinned shared-bottleneck scenarios: every placement algorithm on
/// the paper-WAN topology quick world, plus one cell under gauged
/// knowledge. These pin the *topology backend* and live in their own
/// fixture (`tests/golden/digests_topo.txt`, regenerated with
/// `wadc verify --print-golden-topo`) so the default per-pair fixture
/// stays byte-identical across backend work.
pub fn topo_golden_cases() -> Vec<GoldenCase> {
    fn topo4(alg: Algorithm) -> RunResult {
        Experiment::quick_topo(4, 11).run(alg)
    }
    vec![
        GoldenCase {
            name: "topo4-download-all",
            run: || topo4(Algorithm::DownloadAll),
        },
        GoldenCase {
            name: "topo4-one-shot",
            run: || topo4(Algorithm::OneShot),
        },
        GoldenCase {
            // The paper-WAN quick world finishes in ~13 simulated
            // seconds (its access links are 4-8x the flat pool), so the
            // adaptive cases use a 5 s period to pin actual replanning,
            // not just the initial placement.
            name: "topo4-global-5s",
            run: || {
                topo4(Algorithm::Global {
                    period: SimDuration::from_secs(5),
                })
            },
        },
        GoldenCase {
            name: "topo4-local-5s",
            run: || {
                topo4(Algorithm::Local {
                    period: SimDuration::from_secs(5),
                    extra_candidates: 0,
                })
            },
        },
        GoldenCase {
            name: "topo4-global-5s-gauged",
            run: || {
                Experiment::quick_topo(4, 11)
                    .with_knowledge(wadc_core::knowledge::KnowledgeMode::Gauged)
                    .run(Algorithm::Global {
                        period: SimDuration::from_secs(5),
                    })
            },
        },
    ]
}

/// The pinned scenarios: every placement algorithm on a quick world, plus
/// one larger world to exercise a different trace assignment.
pub fn golden_cases() -> Vec<GoldenCase> {
    fn quick4(alg: Algorithm) -> RunResult {
        Experiment::quick(4, 11).run(alg)
    }
    vec![
        GoldenCase {
            name: "quick4-download-all",
            run: || quick4(Algorithm::DownloadAll),
        },
        GoldenCase {
            name: "quick4-one-shot",
            run: || quick4(Algorithm::OneShot),
        },
        GoldenCase {
            name: "quick4-global-30s",
            run: || {
                quick4(Algorithm::Global {
                    period: SimDuration::from_secs(30),
                })
            },
        },
        GoldenCase {
            name: "quick4-local-30s",
            run: || {
                quick4(Algorithm::Local {
                    period: SimDuration::from_secs(30),
                    extra_candidates: 0,
                })
            },
        },
        GoldenCase {
            name: "quick6-global-60s",
            run: || {
                Experiment::quick(6, 23).run(Algorithm::Global {
                    period: SimDuration::from_secs(60),
                })
            },
        },
        GoldenCase {
            // Forecast knowledge feeds every absorbed piggyback entry to
            // the receiver's forecaster, so this pins that feed. A 5 s
            // period, because at 30 s the plans (and digests) match the
            // monitored run's.
            name: "quick4-global-5s-forecast",
            run: || {
                Experiment::quick(4, 11)
                    .with_knowledge(wadc_core::knowledge::KnowledgeMode::Forecast)
                    .run(Algorithm::Global {
                        period: SimDuration::from_secs(5),
                    })
            },
        },
        GoldenCase {
            // 13 hosts make 78 pairs, more than the 42 entries a 1 KB
            // piggyback holds, so this pins newest-first truncation.
            name: "quick12-global-60s",
            run: || {
                Experiment::quick(12, 29).run(Algorithm::Global {
                    period: SimDuration::from_secs(60),
                })
            },
        },
    ]
}

/// Renders the current digests of every golden case in fixture format:
/// one `name audit=<hex16> result=<hex16>` line per case.
pub fn render_fixture() -> String {
    render_cases(
        "# Golden run digests — regenerate with `wadc verify --print-golden`.\n\
         # Any drift here means the engine's observable behaviour changed.\n",
        golden_cases(),
    )
}

/// [`render_fixture`] for the shared-bottleneck topology cases
/// (`tests/golden/digests_topo.txt`).
pub fn render_topo_fixture() -> String {
    render_cases(
        "# Golden topology-backend digests — regenerate with `wadc verify --print-golden-topo`.\n\
         # Any drift here means the shared-bottleneck model's observable behaviour changed.\n",
        topo_golden_cases(),
    )
}

fn render_cases(header: &str, cases: Vec<GoldenCase>) -> String {
    let mut out = String::from(header);
    for case in cases {
        let d = RunDigests::of(&case.run());
        out.push_str(&format!("{} {d}\n", case.name));
    }
    out
}

/// Compares the current digests of every golden case against `fixture`
/// (the contents of `tests/golden/digests.txt`) and returns one message
/// per mismatch, missing entry, or stale entry.
pub fn compare_fixture(fixture: &str) -> Vec<String> {
    compare_cases(fixture, golden_cases())
}

/// [`compare_fixture`] for the shared-bottleneck topology cases against
/// `tests/golden/digests_topo.txt`.
pub fn compare_topo_fixture(fixture: &str) -> Vec<String> {
    compare_cases(fixture, topo_golden_cases())
}

fn compare_cases(fixture: &str, cases: Vec<GoldenCase>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut pinned = std::collections::HashMap::new();
    for line in fixture.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(audit), Some(result)) => {
                pinned.insert(name.to_string(), format!("{audit} {result}"));
            }
            _ => failures.push(format!("unparseable fixture line: {line:?}")),
        }
    }
    for case in cases {
        let current = RunDigests::of(&case.run()).to_string();
        match pinned.remove(case.name) {
            None => failures.push(format!(
                "{}: no pinned digests (regenerate the fixture)",
                case.name
            )),
            Some(want) if want != current => failures.push(format!(
                "{}: digest drift — pinned {want}, current {current}",
                case.name
            )),
            Some(_) => {}
        }
    }
    for stale in pinned.keys() {
        failures.push(format!("{stale}: pinned but no longer a golden case"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_round_trips() {
        let fixture = render_fixture();
        let failures = compare_fixture(&fixture);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn topo_fixture_round_trips() {
        let fixture = render_topo_fixture();
        let failures = compare_topo_fixture(&fixture);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn topo_cases_are_disjoint_from_default_cases() {
        // The two fixtures pin different backends; a shared name would
        // let one silently mask drift in the other.
        let defaults: std::collections::HashSet<_> =
            golden_cases().iter().map(|c| c.name).collect();
        for case in topo_golden_cases() {
            assert!(!defaults.contains(case.name), "{} pinned twice", case.name);
        }
    }

    #[test]
    fn detects_drift_and_staleness() {
        let mut fixture = render_fixture();
        fixture = fixture.replacen("audit=", "audit=f", 1);
        fixture.push_str("retired-case audit=0000000000000000 result=0000000000000000\n");
        let failures = compare_fixture(&fixture);
        assert!(failures.iter().any(|f| f.contains("digest drift")));
        assert!(failures
            .iter()
            .any(|f| f.contains("no longer a golden case")));
    }
}
