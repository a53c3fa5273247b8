//! Fault injection against the serving path: contained panics, deadlines
//! against wedged workers, overload shedding on a full backlog, retry with
//! backoff, uncontained worker death, and error-byte traffic accounting.
//!
//! Together these prove the PR-level acceptance criteria: a panicking
//! request costs exactly one `Internal` error frame (never the pool), a
//! client deadline always fires against a stalled worker, a full backlog
//! answers `Overloaded` without blocking, and error frames are metered on
//! the wire like any other response.

use rsse::cloud::entities::{CloudServer, DataOwner, Deployment, Storage};
use rsse::cloud::server_loop::{Fault, PoolOptions, ServerHandle};
use rsse::cloud::{CloudError, ErrorKind, Message, MeteredChannel, SearchMode};
use rsse::core::RsseParams;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Silences the default panic printout for the panics this suite injects
/// on purpose; genuine panics still print.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            // `Fault::Panic` carries an "injected fault: …" String;
            // `Fault::KillWorker` panics with a private marker type that is
            // neither &str nor String. Only this binary injects either.
            let injected = payload.downcast_ref::<String>().map_or_else(
                || payload.downcast_ref::<&str>().is_none(),
                |s| s.contains("injected fault"),
            );
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn spawn_with(options: PoolOptions) -> (DataOwner, ServerHandle) {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(57));
    let owner = DataOwner::new(b"fault seed", RsseParams::default());
    let server = CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap();
    (
        owner,
        ServerHandle::spawn_pool_shared(Arc::new(server), options),
    )
}

fn search(owner: &DataOwner, top_k: Option<u32>) -> Message {
    owner
        .authorize_user()
        .search_request("network", top_k, SearchMode::Rsse)
        .unwrap()
}

/// A fault hook firing only on conjunctive requests, so plain searches
/// pass through and prove the pool still serves after the fault.
fn fault_on_conjunctive(fault: Fault) -> impl Fn(&Message) -> Option<Fault> + Send + Sync {
    move |msg| matches!(msg, Message::ConjunctiveRequest { .. }).then_some(fault)
}

#[test]
fn injected_panic_is_contained_and_pool_keeps_serving() {
    quiet_injected_panics();
    let (owner, handle) =
        spawn_with(PoolOptions::new(2, 8).with_fault(fault_on_conjunctive(Fault::Panic("boom"))));
    let client = handle.client();

    let poisoned = owner
        .authorize_user()
        .conjunctive_request("network system", Some(3))
        .unwrap();
    let err = client.call(poisoned).unwrap_err();
    let CloudError::Server { kind, detail } = err else {
        panic!("expected a decoded error frame, got {err:?}");
    };
    assert_eq!(kind, ErrorKind::Internal);
    assert!(detail.contains("panicked"), "detail: {detail}");

    // The worker survived: ordinary requests keep being served …
    for _ in 0..4 {
        assert!(matches!(
            client.call(search(&owner, Some(2))).unwrap(),
            Message::RsseResponse { .. }
        ));
    }
    // … and the audit log counted exactly the one contained panic.
    let report = handle.server().serving_report();
    assert_eq!(report.panics, 1);
    assert_eq!(report.searches, 4);
    assert_eq!(handle.shutdown(), 5);
}

#[test]
fn deadline_fires_against_a_wedged_worker() {
    let (owner, handle) = spawn_with(PoolOptions::new(1, 8).with_fault(fault_on_conjunctive(
        Fault::Stall(Duration::from_millis(400)),
    )));
    let client = handle.client();

    let wedging = owner
        .authorize_user()
        .conjunctive_request("network system", Some(3))
        .unwrap();
    let started = Instant::now();
    let err = client
        .call_with_deadline(wedging, Duration::from_millis(50))
        .unwrap_err();
    let waited = started.elapsed();
    assert!(
        matches!(err, CloudError::Timeout { after } if after == Duration::from_millis(50)),
        "expected a timeout, got {err:?}"
    );
    assert!(
        waited < Duration::from_millis(350),
        "deadline must fire well before the 400 ms stall ends, waited {waited:?}"
    );

    // Once the stall drains, the same worker serves again.
    assert!(matches!(
        client.call(search(&owner, Some(1))).unwrap(),
        Message::RsseResponse { .. }
    ));
    handle.shutdown();
}

#[test]
fn full_backlog_sheds_with_an_overloaded_error_without_blocking() {
    let (owner, handle) =
        spawn_with(PoolOptions::new(1, 1).with_io_delay(Duration::from_millis(100)));
    let client = handle.client();
    let req = search(&owner, Some(1));

    // Two filler clients hammer the single worker and single backlog slot
    // so the queue is full nearly all the time; this client then
    // overflows: its shed must be an immediate Overloaded, not a block.
    let stop = Arc::new(AtomicBool::new(false));
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            let filler = handle.client();
            let req = req.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if filler.call(req.clone()).is_err() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();

    let mut shed = None;
    let give_up = Instant::now() + Duration::from_secs(5);
    while Instant::now() < give_up {
        let started = Instant::now();
        // Anything else means we raced a free slot (or got served): retry.
        if let Err(CloudError::Server {
            kind: ErrorKind::Overloaded,
            detail,
        }) = client.call(req.clone())
        {
            shed = Some((started.elapsed(), detail));
            break;
        }
    }
    let (latency, detail) = shed.expect("a 1-worker/1-slot pool under load must shed");
    assert!(
        latency < Duration::from_millis(50),
        "shedding must not block on the backlog, took {latency:?}"
    );
    assert!(detail.contains("backlog"), "detail: {detail}");

    stop.store(true, Ordering::Relaxed);
    for filler in fillers {
        filler.join().unwrap();
    }
    // The overload was transient: once the hammering stops, the same pool
    // serves normally again.
    assert!(matches!(
        client.call(req).unwrap(),
        Message::RsseResponse { .. }
    ));
    handle.shutdown();
}

#[test]
fn retry_with_backoff_rides_out_a_transient_overload() {
    let (owner, handle) =
        spawn_with(PoolOptions::new(1, 1).with_io_delay(Duration::from_millis(20)));

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let client = handle.client();
            let req = search(&owner, Some(1));
            scope.spawn(move || {
                // Backlog of 1 with four competing clients: raw calls shed
                // routinely, but bounded retries absorb the transient.
                client
                    .call_with_retry(req, 10, Duration::from_millis(5))
                    .unwrap()
            });
        }
    });
    assert_eq!(handle.shutdown(), 4, "every client was eventually served");
}

#[test]
fn uncontained_worker_death_does_not_poison_shutdown() {
    quiet_injected_panics();
    let (owner, handle) =
        spawn_with(PoolOptions::new(2, 8).with_fault(fault_on_conjunctive(Fault::KillWorker)));
    let client = handle.client();

    let lethal = owner
        .authorize_user()
        .conjunctive_request("network system", Some(3))
        .unwrap();
    // The killed worker never replies; the client sees a dead channel.
    let err = client
        .call_with_deadline(lethal, Duration::from_millis(500))
        .unwrap_err();
    assert!(
        matches!(
            err,
            CloudError::Transport { .. } | CloudError::Timeout { .. }
        ),
        "expected transport failure or timeout, got {err:?}"
    );

    // The surviving worker still serves, and shutdown reports its count
    // instead of panicking on the dead thread's join.
    let served = (0..3)
        .filter(|_| client.call(search(&owner, Some(1))).is_ok())
        .count();
    assert_eq!(served, 3);
    assert_eq!(handle.shutdown(), 3);
}

#[test]
fn dropping_a_handle_with_a_full_backlog_returns() {
    let (owner, handle) = spawn_with(PoolOptions::new(1, 1).with_fault(fault_on_conjunctive(
        Fault::Stall(Duration::from_millis(400)),
    )));
    let client = handle.client();

    // Wedge the only worker, then let a timed-out request sit in the
    // backlog slot: no shutdown sentinel can fit.
    let wedging = owner
        .authorize_user()
        .conjunctive_request("network system", Some(3))
        .unwrap();
    let _ = client.call_with_deadline(wedging, Duration::from_millis(10));
    let _ = client.call_with_deadline(search(&owner, Some(1)), Duration::from_millis(10));

    // Drop must give up on the full queue and return well before the
    // 400 ms stall drains (the worker detaches and exits on its own).
    let started = Instant::now();
    drop(handle);
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "drop must not wait out a wedged pool, took {:?}",
        started.elapsed()
    );
}

#[test]
fn out_of_protocol_round_trip_meters_the_error_frame() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(58));
    let cloud = Deployment::bootstrap(
        b"meter seed",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let mut channel = MeteredChannel::new();

    // A response message sent as a request is out of protocol: the server
    // answers with a Rejected error frame whose bytes are metered.
    let bogus = Message::FilesResponse { files: vec![] };
    let err = cloud.round_trip(&mut channel, bogus).unwrap_err();
    let CloudError::Server { kind, .. } = err else {
        panic!("expected a decoded error frame, got {err:?}");
    };
    assert_eq!(kind, ErrorKind::Rejected);

    let report = channel.report();
    assert_eq!(report.error_frames, 1);
    assert_eq!(report.round_trips, 1);
    assert!(report.bytes_down > 0, "error frames cost real bytes");
    assert_eq!(cloud.server().serving_report().rejected, 1);

    // A well-formed search through the same channel meters normally.
    let user = cloud.user();
    let ok = cloud
        .round_trip(
            &mut channel,
            user.search_request("network", Some(2), SearchMode::Rsse)
                .unwrap(),
        )
        .unwrap();
    assert!(matches!(ok, Message::RsseResponse { .. }));
    assert_eq!(
        channel.report().error_frames,
        1,
        "success adds no error frames"
    );
    assert_eq!(channel.report().round_trips, 2);
}
