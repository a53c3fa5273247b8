//! The simulated network: latency/bandwidth cost model and traffic
//! accounting.
//!
//! The paper's efficiency argument is about *protocol shape*: one round
//! with top-k-sized responses (RSSE) versus one round with everything
//! (basic, naive) versus two rounds (basic, top-k). This module prices each
//! message so the trade-off becomes a number.

use std::time::Duration;

/// Link parameters of the simulated owner/user ↔ cloud connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// One-way propagation latency.
    pub one_way_latency: Duration,
    /// Link throughput in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl NetworkParams {
    /// A WAN-ish default: 40 ms one-way, 100 Mbit/s.
    pub fn wan() -> Self {
        NetworkParams {
            one_way_latency: Duration::from_millis(40),
            bandwidth_bytes_per_sec: 12.5e6,
        }
    }

    /// A LAN-ish profile: 0.5 ms one-way, 1 Gbit/s.
    pub fn lan() -> Self {
        NetworkParams {
            one_way_latency: Duration::from_micros(500),
            bandwidth_bytes_per_sec: 125e6,
        }
    }

    /// Transfer time of `bytes` over this link (latency excluded).
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

impl Default for NetworkParams {
    fn default() -> Self {
        Self::wan()
    }
}

/// Accumulated traffic of one protocol run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Bytes sent client → server.
    pub bytes_up: usize,
    /// Bytes sent server → client.
    pub bytes_down: usize,
    /// Number of round trips (request/response pairs).
    pub round_trips: u32,
    /// How many of the downstream frames were protocol `Error` frames.
    /// Their bytes count in `bytes_down` like any other response — failure
    /// is part of the paper's byte-on-the-wire accounting, not a side
    /// channel.
    pub error_frames: u32,
    /// How many of the round trips were scatter legs to index shards. A
    /// single-server run reports 0; a sharded query reports one leg per
    /// shard it addressed (failed legs included — their error bytes are on
    /// the wire either way).
    pub shard_legs: u32,
    /// How many individual queries travelled inside `BatchRequest` frames.
    /// A run of only single-query frames reports 0; a batch of `n` searches
    /// adds `n` here while costing just one round trip — the ratio is the
    /// protocol's amortization factor.
    pub batched_queries: u32,
    /// Scatter legs the router *skipped* because the shard's label filter
    /// proved it holds no postings for the query label. Pruned legs cost
    /// zero bytes and zero round trips; this counter is the only place the
    /// saved fan-out shows up, so it is never folded into `shard_legs`
    /// (which counts only legs actually sent).
    pub pruned_legs: u32,
    /// `FilterRequest`/`FilterReply` round trips spent refreshing shard
    /// label filters after an epoch bump. Their bytes and round trips are
    /// metered like any other frame; the count makes the refresh traffic
    /// attributable.
    pub filter_fetches: u32,
    /// Conjunctive (multi-keyword) queries issued by this run — one tick
    /// per query regardless of how many shards it scattered to.
    pub conjunctive_queries: u32,
    /// Scatter legs carrying `ConjunctiveShardQuery` frames. Counted here
    /// and *not* in `shard_legs`, so single-keyword and conjunctive
    /// fan-out stay separately attributable; the bench's `served == legs`
    /// accounting sums whichever kinds a workload sends.
    pub conjunctive_legs: u32,
}

impl TrafficReport {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> usize {
        self.bytes_up + self.bytes_down
    }

    /// Folds another report into this one — how a scatter-gather
    /// coordinator aggregates its per-shard leg reports into the query's
    /// total traffic.
    pub fn absorb(&mut self, other: &TrafficReport) {
        self.bytes_up += other.bytes_up;
        self.bytes_down += other.bytes_down;
        self.round_trips += other.round_trips;
        self.error_frames += other.error_frames;
        self.shard_legs += other.shard_legs;
        self.batched_queries += other.batched_queries;
        self.pruned_legs += other.pruned_legs;
        self.filter_fetches += other.filter_fetches;
        self.conjunctive_queries += other.conjunctive_queries;
        self.conjunctive_legs += other.conjunctive_legs;
    }

    /// The traffic of one scatter leg: a query frame up to a shard and one
    /// reply frame (success or error) back down.
    pub fn shard_leg(bytes_up: usize, bytes_down: usize, is_error: bool) -> TrafficReport {
        TrafficReport {
            bytes_up,
            bytes_down,
            round_trips: 1,
            error_frames: u32::from(is_error),
            shard_legs: 1,
            ..TrafficReport::default()
        }
    }

    /// The traffic of one filter refresh: a `FilterRequest` up and one
    /// reply frame (a `FilterReply` or an error) back down. One round
    /// trip, no scatter leg.
    pub fn filter_fetch(bytes_up: usize, bytes_down: usize, is_error: bool) -> TrafficReport {
        TrafficReport {
            bytes_up,
            bytes_down,
            round_trips: 1,
            error_frames: u32::from(is_error),
            filter_fetches: 1,
            ..TrafficReport::default()
        }
    }

    /// The non-traffic of one pruned scatter leg: zero bytes, zero round
    /// trips, one `pruned_legs` tick.
    pub fn pruned_leg() -> TrafficReport {
        TrafficReport {
            pruned_legs: 1,
            ..TrafficReport::default()
        }
    }

    /// The traffic of one conjunctive scatter leg: a
    /// `ConjunctiveShardQuery` up and one reply frame (success or error)
    /// back down.
    pub fn conjunctive_leg(bytes_up: usize, bytes_down: usize, is_error: bool) -> TrafficReport {
        TrafficReport {
            bytes_up,
            bytes_down,
            round_trips: 1,
            error_frames: u32::from(is_error),
            conjunctive_legs: 1,
            ..TrafficReport::default()
        }
    }

    /// Simulated wall-clock completion time over `net`: per round trip two
    /// propagation delays, plus serialization time of every byte.
    pub fn simulated_time(&self, net: &NetworkParams) -> Duration {
        let propagation = net.one_way_latency * (2 * self.round_trips);
        propagation + net.transfer_time(self.total_bytes())
    }
}

/// A metered channel that tallies every frame.
#[derive(Debug, Clone, Default)]
pub struct MeteredChannel {
    report: TrafficReport,
}

impl MeteredChannel {
    /// Creates a channel with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a client → server frame.
    pub fn send_up(&mut self, bytes: usize) {
        self.report.bytes_up += bytes;
    }

    /// Records a server → client frame and closes one round trip.
    pub fn send_down(&mut self, bytes: usize) {
        self.report.bytes_down += bytes;
        self.report.round_trips += 1;
    }

    /// Records a server → client `Error` frame: same byte and round-trip
    /// accounting as [`MeteredChannel::send_down`], plus the error tally.
    pub fn send_down_error(&mut self, bytes: usize) {
        self.send_down(bytes);
        self.report.error_frames += 1;
    }

    /// Records that the next upstream frame batches `queries` searches.
    pub fn note_batch(&mut self, queries: usize) {
        self.report.batched_queries += queries as u32;
    }

    /// Records that the next upstream frame is a conjunctive query.
    pub fn note_conjunctive(&mut self) {
        self.report.conjunctive_queries += 1;
    }

    /// The accumulated report.
    pub fn report(&self) -> TrafficReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let net = NetworkParams::lan();
        let t1 = net.transfer_time(1_000_000);
        let t2 = net.transfer_time(2_000_000);
        assert!((t2.as_secs_f64() - 2.0 * t1.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn round_trips_dominate_small_messages_on_wan() {
        let net = NetworkParams::wan();
        let one_round = TrafficReport {
            bytes_up: 100,
            bytes_down: 100,
            round_trips: 1,
            ..TrafficReport::default()
        };
        let two_rounds = TrafficReport {
            bytes_up: 100,
            bytes_down: 100,
            round_trips: 2,
            ..TrafficReport::default()
        };
        let d1 = one_round.simulated_time(&net);
        let d2 = two_rounds.simulated_time(&net);
        assert!(d2 > d1);
        assert!((d2 - d1).as_millis() >= 79, "extra RTT ≈ 80 ms");
    }

    #[test]
    fn bandwidth_dominates_bulk_transfers() {
        let net = NetworkParams::wan();
        let bulky = TrafficReport {
            bytes_up: 200,
            bytes_down: 100_000_000, // ~8 s at 100 Mbit/s
            round_trips: 1,
            ..TrafficReport::default()
        };
        assert!(bulky.simulated_time(&net) > Duration::from_secs(7));
    }

    #[test]
    fn metered_channel_accumulates() {
        let mut ch = MeteredChannel::new();
        ch.send_up(10);
        ch.send_down(20);
        ch.send_up(5);
        ch.send_down_error(5);
        let r = ch.report();
        assert_eq!(r.bytes_up, 15);
        assert_eq!(r.bytes_down, 25);
        assert_eq!(r.round_trips, 2);
        assert_eq!(r.error_frames, 1);
        assert_eq!(r.total_bytes(), 40);
        assert_eq!(r.shard_legs, 0, "a plain channel run has no shard legs");
        assert_eq!(r.batched_queries, 0, "no batch frames were sent");
        assert_eq!(r.conjunctive_queries, 0, "no conjunctive frames were sent");
        assert_eq!(r.conjunctive_legs, 0);
    }

    #[test]
    fn conjunctive_traffic_is_tallied_and_absorbed() {
        let mut ch = MeteredChannel::new();
        ch.note_conjunctive();
        ch.send_up(120);
        ch.send_down(800);
        let query = ch.report();
        assert_eq!(query.conjunctive_queries, 1);
        assert_eq!(query.conjunctive_legs, 0, "a single-node query has no legs");

        let leg = TrafficReport::conjunctive_leg(120, 300, false);
        assert_eq!(leg.round_trips, 1);
        assert_eq!(leg.conjunctive_legs, 1);
        assert_eq!(leg.shard_legs, 0, "conjunctive legs are tallied apart");
        let dead = TrafficReport::conjunctive_leg(120, 35, true);
        assert_eq!(dead.error_frames, 1, "a dead leg's error frame is metered");

        let mut total = TrafficReport::default();
        total.absorb(&query);
        total.absorb(&leg);
        total.absorb(&dead);
        assert_eq!(total.conjunctive_queries, 1);
        assert_eq!(total.conjunctive_legs, 2);
        assert_eq!(total.round_trips, 3);
        assert_eq!(total.bytes_up, 360);
        assert_eq!(total.bytes_down, 1135);
    }

    #[test]
    fn batched_queries_are_tallied_and_absorbed() {
        let mut ch = MeteredChannel::new();
        ch.note_batch(16);
        ch.send_up(900);
        ch.send_down(4000);
        let leg = ch.report();
        assert_eq!(leg.batched_queries, 16);
        assert_eq!(leg.round_trips, 1, "16 queries in one round trip");
        let mut total = TrafficReport::default();
        total.absorb(&leg);
        total.absorb(&leg);
        assert_eq!(total.batched_queries, 32);
    }

    #[test]
    fn absorb_aggregates_scatter_legs() {
        let mut total = TrafficReport::default();
        total.absorb(&TrafficReport::shard_leg(60, 200, false));
        total.absorb(&TrafficReport::shard_leg(60, 35, true));
        assert_eq!(total.bytes_up, 120);
        assert_eq!(total.bytes_down, 235);
        assert_eq!(total.round_trips, 2);
        assert_eq!(total.shard_legs, 2);
        assert_eq!(total.error_frames, 1, "a dead leg's error frame is metered");
    }

    #[test]
    fn pruned_legs_and_filter_fetches_are_metered_and_absorbed() {
        let pruned = TrafficReport::pruned_leg();
        assert_eq!(pruned.total_bytes(), 0, "a pruned leg costs no bytes");
        assert_eq!(pruned.round_trips, 0, "a pruned leg costs no round trip");
        assert_eq!(pruned.shard_legs, 0, "only sent legs count as shard legs");
        assert_eq!(pruned.pruned_legs, 1);

        let fetch = TrafficReport::filter_fetch(13, 100, false);
        assert_eq!(fetch.round_trips, 1);
        assert_eq!(fetch.filter_fetches, 1);
        assert_eq!(fetch.shard_legs, 0, "a filter refresh is not a query leg");
        assert_eq!(fetch.error_frames, 0);
        let refused = TrafficReport::filter_fetch(13, 40, true);
        assert_eq!(refused.error_frames, 1, "an error reply is metered");
        assert_eq!(refused.filter_fetches, 1);

        let mut total = TrafficReport::default();
        total.absorb(&pruned);
        total.absorb(&fetch);
        total.absorb(&TrafficReport::shard_leg(60, 200, false));
        assert_eq!(total.pruned_legs, 1);
        assert_eq!(total.filter_fetches, 1);
        assert_eq!(total.shard_legs, 1);
        assert_eq!(total.round_trips, 2);
        assert_eq!(total.bytes_up, 73);
        assert_eq!(total.bytes_down, 300);
    }
}
