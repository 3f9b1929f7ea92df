//! Portfolio tests: deadlines are honoured, backends after the winner never
//! run, and the winner is deterministic under the documented lowest-index
//! tie-break.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::time::{Duration, Instant};

use himap_repro::cgra::CgraSpec;
use himap_repro::core::backend::{
    race, Backend, BackendError, BhcBackend, HiMapBackend, MapRequest, RaceMode,
};
use himap_repro::core::{HiMapError, Mapping};
use himap_repro::exact::ExactBackend;
use himap_repro::kernels::suite;

/// A backend that only counts how often it is called.
#[derive(Default)]
struct Probe {
    calls: Cell<usize>,
}

impl Backend for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn map(&self, _req: &MapRequest) -> Result<Mapping, BackendError> {
        self.calls.set(self.calls.get() + 1);
        Err(BackendError::Unsupported("probe never maps".into()))
    }
}

#[test]
fn race_honours_the_deadline() {
    // A 5ms budget on a 16x16 GEMM: no backend can finish, and the race
    // must come back as DeadlineExceeded promptly — cooperative polls run
    // on a few-millisecond granularity, so allow generous scheduling slack
    // but nothing near a full mapping attempt.
    let req = MapRequest::new(suite::gemm(), CgraSpec::square(16))
        .with_deadline(Duration::from_millis(5));
    let himap = HiMapBackend::default();
    let exact = ExactBackend::default();
    let started = Instant::now();
    let result = race(&[&himap, &exact], &req, RaceMode::FirstFeasible);
    let elapsed = started.elapsed();
    match result {
        Err(HiMapError::DeadlineExceeded(report)) => {
            assert!(!report.outcomes.is_empty());
            assert!(report.outcomes.iter().all(|o| o.error.is_some()), "{report}");
            assert_eq!(report.outcomes[0].name, "himap");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Mapping GEMM on 16x16 takes seconds when allowed to run; the race
    // must instead return within cooperative-poll latency of the deadline.
    assert!(elapsed < Duration::from_secs(2), "race overran its deadline: {elapsed:?}");
}

#[test]
fn backends_after_the_winner_never_run() {
    // Under FirstFeasible the race stops at the first success: HiMap maps
    // MVT on 4x4, so the backend queued behind it is never called and has
    // no outcome.
    let req = MapRequest::new(suite::mvt(), CgraSpec::square(4));
    let himap = HiMapBackend::default();
    let probe = Probe::default();
    let outcome =
        race(&[&himap, &probe], &req, RaceMode::FirstFeasible).expect("himap wins the race");
    assert_eq!(outcome.winner, "himap");
    assert_eq!(outcome.winner_index, 0);
    assert_eq!(outcome.outcomes.len(), 1, "{:?}", outcome.outcomes);
    assert_eq!(probe.calls.get(), 0, "a backend after the winner ran");
}

#[test]
fn expired_budget_is_a_deadline_without_mapping() {
    // A request whose budget is already spent: each backend must report a
    // deadline rather than map anyway, and the race calls no backend at all.
    let req = MapRequest::new(suite::mvt(), CgraSpec::square(4)).with_deadline(Duration::ZERO);
    let result = HiMapBackend::default().map(&req);
    assert!(matches!(result, Err(BackendError::Deadline(_))), "got {result:?}");
    let result = ExactBackend::default().map(&req);
    assert!(matches!(result, Err(BackendError::Deadline(_))), "got {result:?}");
    let probe = Probe::default();
    match race(&[&probe], &req, RaceMode::FirstFeasible) {
        Err(HiMapError::DeadlineExceeded(report)) => {
            assert_eq!(report.outcomes.len(), 1);
            assert_eq!(report.outcomes[0].name, "probe");
            assert!(
                matches!(report.outcomes[0].error, Some(BackendError::Deadline(_))),
                "{report:?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(probe.calls.get(), 0, "a backend ran after the deadline");
}

#[test]
fn winner_is_deterministic_across_repeated_races() {
    // The documented tie-break: lowest II, then lowest index. Re-race three
    // times; the winner name, index, and achieved II must never move.
    let req = MapRequest::new(suite::mvt(), CgraSpec::square(4));
    let himap = HiMapBackend::default();
    let bhc = BhcBackend::default().with_block(vec![2, 3]);
    let picks: Vec<_> = (0..3)
        .map(|_| {
            let outcome = race(&[&himap, &bhc], &req, RaceMode::BestII).expect("mvt maps on 4x4");
            (outcome.winner, outcome.winner_index, outcome.mapping.stats().iib)
        })
        .collect();
    assert_eq!(picks[0], picks[1], "winner moved between the first and second race");
    assert_eq!(picks[1], picks[2], "winner moved between the second and third race");
}

#[test]
fn best_ii_mode_keeps_every_outcome() {
    // BestII races run every backend: both outcomes carry an II or an
    // error, and the winner achieved the minimum of the IIs.
    let req =
        MapRequest::new(suite::mvt(), CgraSpec::square(4)).with_deadline(Duration::from_secs(30));
    let himap = HiMapBackend::default();
    let exact = ExactBackend::default();
    let outcome = race(&[&himap, &exact], &req, RaceMode::BestII).expect("mvt maps");
    let best_ii =
        outcome.outcomes.iter().filter_map(|o| o.ii).min().expect("at least one backend succeeded");
    assert_eq!(outcome.mapping.stats().iib, best_ii);
}
