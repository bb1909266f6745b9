//! Positive fixture: ad-hoc shared mutable thread state outside the
//! audited experiment work queue.
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

pub struct SharedCounters {
    hits: AtomicU64,
    log: Mutex<Vec<u64>>,
}

pub fn fan_out() {
    std::thread::spawn(|| {});
}

thread_local! {
    static POSITION: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

static mut COUNTER: u64 = 0;
