//! Analytic FCFS multi-server resources.
//!
//! CPUs, NIC engines and links are modeled as non-preemptive first-come
//! first-served stations with `c` identical servers. Because the kernel
//! dispatches events in non-decreasing time order, jobs arrive at a resource
//! in time order, and the classic "assign to the earliest-free server"
//! rule computes the exact FCFS completion time in O(c) without simulating
//! the queue explicitly: each `schedule` call immediately returns the
//! completion instant, which the caller turns into a future event.
//!
//! A caller may also book a job whose arrival lies in the future (a
//! tandem stage fed only by another station's completions, see
//! `Ctx::reserve_resource`), as long as it still presents arrivals in
//! non-decreasing order; debug builds check that order on every booking.

use crate::time::{Dur, SimTime};

/// Handle to a [`Resource`] registered with the simulation kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// A non-preemptive FCFS station with a fixed number of identical servers.
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    /// Instant at which each server next becomes idle.
    free_at: Vec<SimTime>,
    /// Sum of all service demands ever scheduled.
    busy: Dur,
    /// Latest arrival booked so far (FCFS needs non-decreasing arrivals).
    last_arrival: SimTime,
}

impl Resource {
    /// Create a station with `servers >= 1` identical servers.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers >= 1, "a resource needs at least one server");
        Resource {
            name: name.into(),
            free_at: vec![SimTime::ZERO; servers],
            busy: Dur::ZERO,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Schedule a job arriving `now` with the given `service` demand; returns
    /// the instant the job completes under FCFS.
    ///
    /// Callers must present arrivals in non-decreasing `now` order (the
    /// kernel guarantees this for jobs arriving at the current instant;
    /// future-arrival bookings must keep it themselves). Debug builds
    /// panic on an arrival earlier than the previous one.
    pub fn schedule(&mut self, now: SimTime, service: Dur) -> SimTime {
        debug_assert!(
            now >= self.last_arrival,
            "resource {}: arrival {:?} precedes earlier arrival {:?}; FCFS needs \
             non-decreasing arrivals",
            self.name,
            now,
            self.last_arrival
        );
        self.last_arrival = now;
        // Earliest-free server.
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("resource has at least one server");
        let start = self.free_at[idx].max(now);
        let completion = start + service;
        self.free_at[idx] = completion;
        self.busy += service;
        completion
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Servers still serving (or backed up past) `now` — instantaneous
    /// occupancy, used by probe events to report queue pressure.
    pub fn busy_servers(&self, now: SimTime) -> usize {
        self.free_at.iter().filter(|&&t| t > now).count()
    }

    /// Total service demand scheduled so far.
    pub fn busy_time(&self) -> Dur {
        self.busy
    }

    /// Station name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn single_server_serializes() {
        let mut r = Resource::new("cpu", 1);
        assert_eq!(r.schedule(t(0), Dur::nanos(100)), t(100));
        assert_eq!(r.schedule(t(0), Dur::nanos(50)), t(150));
        assert_eq!(r.schedule(t(200), Dur::nanos(10)), t(210));
        assert_eq!(r.busy_time(), Dur::nanos(160));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = Resource::new("cpu2", 2);
        assert_eq!(r.schedule(t(0), Dur::nanos(100)), t(100));
        assert_eq!(r.schedule(t(0), Dur::nanos(100)), t(100));
        // Third job queues behind the earlier finisher.
        assert_eq!(r.schedule(t(0), Dur::nanos(10)), t(110));
    }

    /// A job arriving during a backlog starts when the server frees, not
    /// at its arrival; one arriving after the backlog starts at once.
    #[test]
    fn earliest_start_reflects_backlog() {
        let mut r = Resource::new("cpu", 1);
        r.schedule(t(0), Dur::nanos(500));
        assert_eq!(r.schedule(t(100), Dur::nanos(10)), t(510));
        assert_eq!(r.schedule(t(700), Dur::nanos(10)), t(710));
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut r = Resource::new("link", 1);
        r.schedule(t(0), Dur::nanos(10));
        assert_eq!(r.schedule(t(1_000), Dur::nanos(10)), t(1_010));
    }

    /// The arrival-order check is a debug assertion, so it only exists in
    /// builds with debug assertions on.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing arrivals")]
    fn out_of_order_arrival_is_rejected() {
        let mut r = Resource::new("nic", 1);
        r.schedule(t(500), Dur::nanos(100));
        r.schedule(t(499), Dur::nanos(100));
    }

    #[test]
    #[should_panic]
    fn zero_servers_rejected() {
        let _ = Resource::new("bad", 0);
    }
}
