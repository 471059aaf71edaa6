//! Open-loop load generation timed from each request's due time.
//!
//! Request `i` is due at `i / rate` seconds after the start, whatever
//! happened to earlier requests. A fixed number of sender threads take
//! requests in order; one whose request is stuck delays the next request
//! it takes, and timing from the due time charges that delay to the
//! system (a generator that timed from the send would hide it).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request's timeline, in seconds since the schedule started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shot {
    /// When the schedule said to send it.
    pub due: f64,
    /// When a sender thread sent it.
    pub sent: f64,
    /// When its response was complete.
    pub done: f64,
    /// Whether the response was a success.
    pub ok: bool,
}

impl Shot {
    /// Latency from the due time in ms; `+∞` for a failed request.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.due) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// Latency from the send in ms (what a send-timed generator reports).
    #[must_use]
    pub fn service_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.sent) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it, in ms.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Send `n` requests at `rate` per second from `threads` senders;
/// `send(i)` performs request `i` and reports success. Returns the shots
/// in request order.
pub fn open_loop(
    n: usize,
    rate: f64,
    threads: usize,
    send: impl Fn(usize) -> bool + Sync,
) -> Vec<Shot> {
    let next = AtomicUsize::new(0);
    let shots: Mutex<Vec<Option<Shot>>> = Mutex::new(vec![None; n]);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let due = i as f64 / rate;
                if let Some(wait) =
                    (t0 + Duration::from_secs_f64(due)).checked_duration_since(Instant::now())
                {
                    std::thread::sleep(wait);
                }
                let sent = t0.elapsed().as_secs_f64();
                let ok = send(i);
                let done = t0.elapsed().as_secs_f64();
                shots.lock().expect("shot buffer poisoned")[i] = Some(Shot {
                    due,
                    sent,
                    done,
                    ok,
                });
            });
        }
    });
    shots
        .into_inner()
        .expect("shot buffer poisoned")
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 1 sender at 100/s: request 0 stalls 50 ms, so requests 1..=4
        // go out late, and their due-timed latency includes the wait
        // that their send-timed latency hides.
        let shots = open_loop(6, 100.0, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            true
        });
        assert_eq!(shots.len(), 6);
        assert!(shots[0].latency_ms() >= 50.0);
        assert!(shots[1].late_ms() >= 35.0, "{:?}", shots[1]);
        assert!(shots[1].latency_ms() >= 35.0);
        assert!(shots[1].service_ms() < 20.0);
        for w in shots.windows(2) {
            assert!(w[1].due > w[0].due);
        }
    }

    #[test]
    fn failures_are_infinite() {
        let shots = open_loop(3, 1000.0, 2, |i| i != 1);
        assert!(shots[0].latency_ms().is_finite());
        assert_eq!(shots[1].latency_ms(), f64::INFINITY);
        assert_eq!(shots[1].service_ms(), f64::INFINITY);
    }
}
