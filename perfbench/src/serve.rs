//! The serving side of every workload: one replica that answers closed-loop
//! lookup bursts from the leader's published views and, between bursts,
//! replays each shipped log tail into one [`Follower`] — on a thread of its
//! own beside the leader, or inline between batches.

use mdbgp_stream::{Follower, ReadHandle};
use std::hint::black_box;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Lookups per burst. A lookup takes tens of nanoseconds, about as long as
/// reading the clock twice, so lookups are timed per burst, never per call.
pub const BURST: usize = 2048;

/// Think time of the concurrent reader: how long it waits for the next log
/// tail before it serves another burst. A burst takes a few hundred
/// microseconds, so the reader keeps about a fifth of a core busy beside
/// the leader instead of a whole one, and a tail that arrives while it
/// waits is replayed at once.
pub const THINK: Duration = Duration::from_millis(1);

/// One log tail shipped from the leader to the replica.
pub struct Shipped {
    /// The leader's current segment as of the record (header + records).
    pub log: Vec<u8>,
    /// When `Leader::ingest` returned, i.e. the record was appended.
    pub appended: Instant,
}

/// What the replica measured, and the operations it attempted.
#[derive(Default)]
pub struct ServeStats {
    /// Mean nanoseconds per lookup, one sample per burst.
    pub burst_ns: Vec<f64>,
    /// The same, for the bursts owed after each replay only: a fixed number
    /// per record, so that repetitions of a stream line up position by
    /// position.
    pub owed_ns: Vec<f64>,
    pub lookups: u64,
    /// Seconds spent in bursts, refreshes included.
    pub burst_s: f64,
    /// Append → follower publishes the record, one sample per record.
    pub lag_ms: Vec<f64>,
    /// Append → replay starts.
    pub wait_ms: f64,
    pub replay_ms: f64,
    pub replay_input_bytes: u64,
    /// Refreshes that moved the pin to a newer view.
    pub refreshes: u64,
    /// Time in those refreshes, including the torn-view check and adoption.
    pub refresh_us: f64,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl ServeStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

pub struct Replica {
    follower: Follower,
    handle: ReadHandle,
    ids: Vec<u32>,
    rng: u64,
    /// Bursts served after each replay before the next log tail is taken.
    owed: usize,
    pub stats: ServeStats,
}

impl Replica {
    pub fn new(follower: Follower, handle: ReadHandle, seed: u64, owed: usize) -> Self {
        Replica {
            follower,
            handle,
            ids: vec![0; BURST],
            rng: seed,
            owed,
            stats: ServeStats::default(),
        }
    }

    pub fn follower(&self) -> &Follower {
        &self.follower
    }

    /// One burst: refresh the pin (checking a new view for tearing and
    /// adopting its epoch), then [`BURST`] lookups of seeded uniform ids.
    /// Returns the mean nanoseconds per lookup.
    pub fn burst(&mut self) -> f64 {
        let entered = Instant::now();
        let mut torn = false;
        if self.handle.refresh() {
            torn = !self.handle.view().verify_checksum();
            if self.handle.needs_adoption() {
                self.handle.adopt();
            }
            self.stats.refreshes += 1;
            self.stats.refresh_us += entered.elapsed().as_secs_f64() * 1e6;
        }
        let n = self.handle.view().num_vertices().max(1) as u64;
        for id in &mut self.ids {
            *id = (splitmix(&mut self.rng) % n) as u32;
        }
        let stale = self.handle.needs_adoption();
        let start = Instant::now();
        let mut acc = 0u64;
        for &v in &self.ids {
            acc = acc.wrapping_add(u64::from(self.handle.lookup(black_box(v)).unwrap_or(0)));
        }
        let elapsed = start.elapsed();
        black_box(acc);
        let ns = elapsed.as_secs_f64() * 1e9 / BURST as f64;
        self.stats.burst_ns.push(ns);
        self.stats.lookups += BURST as u64;
        self.stats.ops += 1;
        if torn {
            self.stats
                .fail("a refreshed view failed its checksum (torn read)".into());
        } else if stale {
            self.stats
                .fail("a burst read a view whose epoch was not adopted".into());
        }
        self.stats.burst_s += entered.elapsed().as_secs_f64();
        ns
    }

    /// Replays one shipped tail; it must apply exactly the one new record.
    pub fn replay(&mut self, shipped: &Shipped) {
        let start = Instant::now();
        let applied = self.follower.replay(&shipped.log[..]);
        let end = Instant::now();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        self.stats.lag_ms.push(ms(end - shipped.appended));
        self.stats.wait_ms += ms(start - shipped.appended);
        self.stats.replay_ms += ms(end - start);
        self.stats.replay_input_bytes += shipped.log.len() as u64;
        self.stats.ops += 1;
        match applied {
            Ok(1) => {}
            Ok(n) => self
                .stats
                .fail(format!("replay applied {n} records, expected 1")),
            Err(e) => self.stats.fail(format!("replay failed: {e}")),
        }
    }

    /// The bursts owed after each replay.
    pub fn owed_bursts(&mut self) {
        for _ in 0..self.owed {
            let ns = self.burst();
            self.stats.owed_ns.push(ns);
        }
    }

    /// The replica thread's closed loop: wait up to [`THINK`] for a tail,
    /// serve a burst if none came, and when one does, replay it,
    /// acknowledge and serve the owed bursts; repeat until the leader hangs
    /// up. Replication is synchronous: the leader submits its next batch
    /// only once the previous record is acknowledged, so the replica's
    /// bursts run while the leader ingests, and a replay never queues
    /// behind another.
    pub fn serve(mut self, tails: Receiver<Shipped>, acks: Sender<()>) -> Self {
        loop {
            match tails.recv_timeout(THINK) {
                Ok(shipped) => {
                    self.replay(&shipped);
                    // After the last record the leader no longer waits for
                    // the acknowledgement; the owed bursts are still served,
                    // so that every repetition has the same burst positions.
                    let _ = acks.send(());
                    self.owed_bursts();
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.burst();
                }
                Err(RecvTimeoutError::Disconnected) => return self,
            }
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
