use super::*;

/// A job's payload (a verify job's is up to `MAX_BODY_BYTES`) is dropped from
/// the registry once the service has the job.
#[test]
fn a_finished_job_holds_no_payload() {
    let gw = Gateway::start(GatewayConfig::default()).unwrap();
    let (status, _, body) = submit_route(&gw.inner, b"{\"kind\":\"sleep\"}");
    assert_eq!(status, 202, "{body}");
    let inner = Arc::clone(&gw.inner);
    gw.shutdown(); // drains the lanes
    let registry = inner.registry.lock().unwrap();
    assert_eq!(registry[&1].state, JobState::Completed);
    assert!(registry[&1].work.is_none());
}

/// The registry keeps every job for the life of the process, so a finished
/// job's entry must stay small: its payload and artifacts sit behind
/// pointers, not inline at the size of their largest variant.
#[test]
fn a_job_entry_stays_small() {
    let size = std::mem::size_of::<JobEntry>();
    assert!(size <= 192, "JobEntry is {size} bytes");
}
