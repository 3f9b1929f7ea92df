//! Portfolio-racing tests: deadlines are honoured, losers observe
//! cancellation, and the winner is deterministic under the documented
//! lowest-index tie-break regardless of thread scheduling.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use himap_repro::cgra::CgraSpec;
use himap_repro::core::backend::{
    race, Backend, BackendError, BhcBackend, HiMapBackend, MapRequest, RaceMode,
};
use himap_repro::core::HiMapError;
use himap_repro::exact::ExactBackend;
use himap_repro::kernels::suite;
use himap_repro::mapper::CancelToken;

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
            assert!(!report.attempts.is_empty());
            assert!(report.attempts.iter().any(|a| a.stage.starts_with("backend-")));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Mapping GEMM on 16x16 takes seconds when allowed to run; the race
    // must instead return within cooperative-poll latency of the deadline.
    assert!(elapsed < Duration::from_secs(2), "race overran its deadline: {elapsed:?}");
}

#[test]
fn losing_backend_observes_cancellation() {
    // HiMap finishes TTM on 4x4 in well under the time the exact backend
    // needs for its default 2x2x2x2 block (tens of seconds of CEGAR churn),
    // so under FirstFeasible the exact worker must be cancelled
    // cooperatively, not run to completion.
    let req = MapRequest::new(suite::ttm(), CgraSpec::square(4));
    let himap = HiMapBackend::default();
    let exact = ExactBackend::default();
    let outcome =
        race(&[&himap, &exact], &req, RaceMode::FirstFeasible).expect("himap wins the race");
    assert_eq!(outcome.winner, "himap");
    assert_eq!(outcome.winner_index, 0);
    let exact_outcome = &outcome.outcomes[1];
    assert_eq!(exact_outcome.name, "exact");
    assert!(
        matches!(exact_outcome.error, Some(BackendError::Cancelled)),
        "exact should lose by cancellation, got {:?}",
        exact_outcome.error
    );
}

#[test]
fn backend_returns_cancelled_on_a_pre_fired_token() {
    // A token whose bound is already below its threshold is "cancelled
    // before the start": the backend must notice it and bail out with
    // Cancelled rather than mapping anyway.
    let req = MapRequest::new(suite::mvt(), CgraSpec::square(4));
    let token = CancelToken::new(Arc::new(AtomicUsize::new(0)), 1);
    assert!(token.is_cancelled());
    let himap = HiMapBackend::default();
    let result = himap.map(&req, &token);
    assert!(matches!(result, Err(BackendError::Cancelled)), "got {result:?}");
    let exact = ExactBackend::default();
    let result = exact.map(&req, &token);
    assert!(matches!(result, Err(BackendError::Cancelled)), "got {result:?}");
}

#[test]
fn winner_is_deterministic_across_repeated_races() {
    // The documented tie-break: lowest index among successes, immune to
    // scheduling jitter between the racing threads. Re-race three times;
    // the winner name, index, and achieved II must never move.
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
    // BestII races run all backends to completion: both outcomes carry an
    // II or an error, and the winner achieved the minimum of the IIs.
    let req =
        MapRequest::new(suite::mvt(), CgraSpec::square(4)).with_deadline(Duration::from_secs(30));
    let himap = HiMapBackend::default();
    let exact = ExactBackend::default();
    let outcome = race(&[&himap, &exact], &req, RaceMode::BestII).expect("mvt maps");
    let best_ii =
        outcome.outcomes.iter().filter_map(|o| o.ii).min().expect("at least one backend succeeded");
    assert_eq!(outcome.mapping.stats().iib, best_ii);
}
