//! Multi-link network fabric: a DAG of routers with deterministic
//! link-level sharding.
//!
//! A [`Fabric`] is a set of links (each a full [`Router`]: buffer
//! policy × scheduler × output link, with its own event core) plus
//! directed edges `(src_link, src_flow) → (dst_link, dst_flow)` along
//! which packets are relayed: a destination flow replays the source
//! flow's recorded departures — exact store-and-forward semantics (a
//! feed-forward hop cannot influence its upstream, so replay is not an
//! approximation). The destination is a source-less relay flow
//! ([`Router::relaying`]), so a relayed flow costs its link statistics
//! and policy/scheduler state but no source or timer slot. A multi-hop
//! line is the path graph ([`crate::scenarios::line`]).
//!
//! Links are added upstream first: every edge runs from a lower link
//! index to a higher one ([`Fabric::connect`] rejects the rest). Link
//! index is therefore a topological order and the only order a run
//! knows — engines, observers, log handoffs, feedback routes and results
//! are all indexed by link.
//!
//! # Epoch/log execution
//!
//! Running every upstream link to completion before its downstream
//! starts holds the whole trace of a link in memory and serializes the
//! topology. The fabric instead
//! advances in bounded **epochs**: with horizon `H` stepping by the
//! epoch length Δ,
//!
//! 1. links are advanced one *wave* at a time — a run of consecutive
//!    links, a new wave opening at the first link fed by one of the
//!    current wave's links — and every link in a wave processes exactly
//!    its events with time `< H` (wave-mates share no edge, so they
//!    advance in parallel);
//! 2. after a wave finishes, each of its links hands every
//!    **departure log** it recorded — one per destination link,
//!    `(destination flow, emission)` in departure order — whole to the
//!    destination's log slot, serially on the driving thread;
//! 3. the next wave then advances to the same `H`, already holding
//!    every arrival it can see before `H`.
//!
//! Step 3 is why the schedule is *exact*, not approximate: a
//! destination link never advances past a time for which upstream
//! departures are still outstanding. The event sequence each link
//! processes is therefore identical to the sequential run, for any
//! epoch length and any shard-thread count — determinism comes from
//! the structure (fixed handoff order, simulation-time horizons), not
//! from scheduling luck. Threads only change how many wave-mates
//! advance concurrently.
//!
//! A log slot is keyed by its head's `(time, destination flow)` — the
//! key a per-flow timer would carry — and a log keeps same-instant
//! entries in destination-flow order, so ties resolve exactly as
//! per-flow replay resolves them, departures first, with one slot per
//! upstream link instead of one per relayed flow. Each log ping-pongs
//! two buffers between recorder and log slot: no steady-state
//! allocation.

use crate::event::{IndexedTimers, Outbox};
use crate::router::{FeedbackMode, Leg, LinkEngine, Router};
use crate::stats::SimResult;
use qbm_core::flow::FlowId;
use qbm_core::policy::BufferPolicy;
use qbm_core::units::{Dur, Time};
use qbm_obs::{NullObserver, Observer};
use qbm_sched::Scheduler;

/// Default epoch length: 1 s of simulation time. Long enough that
/// barrier overhead vanishes against per-epoch event work, short
/// enough that a departure log holds ~one second of departures (a few
/// hundred KiB per link at the paper's rates).
pub const DEFAULT_EPOCH: Dur = Dur::from_secs(1);

/// The `(link, flow)` endpoint of an unwired flow.
const UNWIRED: (u32, u32) = (u32::MAX, u32::MAX);

/// Link `src`'s log `log` goes to link `dst`'s log slot `slot`.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    src: usize,
    log: usize,
    dst: usize,
    slot: usize,
}

/// A DAG of links with deterministic epoch-synchronized execution.
///
/// Build with [`Fabric::add_link`] / [`Fabric::connect`], upstream
/// links first, and run with
/// [`Fabric::run`] or [`Fabric::run_observed`]. Generic over policy
/// and scheduler exactly like [`Router`] (all links share the
/// concrete types; the boxed defaults keep heterogeneous
/// configurations available).
pub struct Fabric<P = Box<dyn BufferPolicy>, S = Box<dyn Scheduler>>
where
    P: BufferPolicy,
    S: Scheduler,
{
    links: Vec<Router<P, S>>,
    /// `feeds[l][f]`: the `(link, flow)` link `l`'s flow `f` relays
    /// into, [`UNWIRED`] if none. Sized at [`Fabric::add_link`], so
    /// wiring is O(1) per edge.
    feeds: Vec<Vec<(u32, u32)>>,
    /// `fed_by[l][f]`: the `(link, flow)` relayed into link `l`'s flow
    /// `f`, [`UNWIRED`] if none.
    fed_by: Vec<Vec<(u32, u32)>>,
    epoch: Dur,
}

impl<P, S> Default for Fabric<P, S>
where
    P: BufferPolicy,
    S: Scheduler,
{
    fn default() -> Self {
        Fabric::new()
    }
}

impl<P, S> Fabric<P, S>
where
    P: BufferPolicy,
    S: Scheduler,
{
    /// An empty fabric with the [`DEFAULT_EPOCH`] exchange horizon.
    pub fn new() -> Fabric<P, S> {
        Fabric {
            links: Vec::new(),
            feeds: Vec::new(),
            fed_by: Vec::new(),
            epoch: DEFAULT_EPOCH,
        }
    }

    /// Override the epoch (log-handoff horizon) length. For an
    /// open-loop fabric results are independent of the choice; only
    /// memory held in logs and barrier frequency change. A closed-loop
    /// fabric applies cross-link feedback at each horizon (DESIGN.md
    /// §16), so its results depend on the epoch length.
    pub fn with_epoch(mut self, epoch: Dur) -> Fabric<P, S> {
        assert!(epoch > Dur::ZERO, "zero fabric epoch");
        self.epoch = epoch;
        self
    }

    /// Add a link; returns its index. Link indices are the
    /// deterministic identity everywhere: handoff order, observer
    /// association, result order, the `link` field on trace records.
    pub fn add_link(&mut self, router: Router<P, S>) -> u32 {
        let n = router.n_flows();
        self.links.push(router);
        self.feeds.push(vec![UNWIRED; n]);
        self.fed_by.push(vec![UNWIRED; n]);
        (self.links.len() - 1) as u32
    }

    /// Number of links added so far.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Relay `src_link`'s flow `src_flow` into `dst_link`'s flow
    /// `dst_flow`. The destination flow is normally a relay flow, with
    /// no source (see [`Router::relaying`]): its packets come from the
    /// departure log of `src_link`, whose departures are recorded
    /// automatically. A sourced destination flow is accepted only when
    /// its source is a [`TraceSource`](qbm_traffic::TraceSource) —
    /// typically an empty stub, the older form of a relay flow; the run
    /// rejects any other source with "a relay flow of link N is not
    /// trace-fed".
    ///
    /// Edges point down the link order: `src_link < dst_link`, so a
    /// fabric is built upstream first and its link order is a
    /// topological order. That rules out self-loops and cycles.
    ///
    /// Panics on a backward edge, on out-of-range links/flows, or if
    /// either endpoint is already wired (a flow has at most one feeder
    /// and one reader — fan-out is expressed by giving the source link
    /// one flow per destination, as the schedulers see them as distinct
    /// flows anyway).
    pub fn connect(&mut self, src_link: u32, src_flow: u32, dst_link: u32, dst_flow: u32) {
        let flows = |l: u32| self.links[l as usize].n_flows() as u32;
        assert!(
            (dst_link as usize) < self.links.len(),
            "edge references unknown link"
        );
        assert!(
            src_link < dst_link,
            "edge {src_link} → {dst_link} points backward: links are added upstream \
             first, so a backward edge could close a cycle"
        );
        assert!(
            src_flow < flows(src_link) && dst_flow < flows(dst_link),
            "edge references unknown flow"
        );
        let out = &mut self.feeds[src_link as usize][src_flow as usize];
        assert!(
            *out == UNWIRED,
            "flow {src_flow} of link {src_link} already feeds an edge"
        );
        *out = (dst_link, dst_flow);
        let feeder = &mut self.fed_by[dst_link as usize][dst_flow as usize];
        assert!(
            *feeder == UNWIRED,
            "flow {dst_flow} of link {dst_link} already has a feeder"
        );
        *feeder = (src_link, src_flow);
    }

    /// The `(link, flow)` whose source originates the traffic of link
    /// `l`'s flow `f`: walk the feeder chain up to its root.
    fn origin_of(&self, mut l: u32, mut f: u32) -> (u32, u32) {
        loop {
            let up = self.fed_by[l as usize][f as usize];
            if up == UNWIRED {
                return (l, f);
            }
            (l, f) = up;
        }
    }

    /// Run the fabric unobserved. See [`Fabric::run_observed`].
    pub fn run(self, seed: u64, warmup: Time, end: Time, threads: usize) -> Vec<SimResult> {
        let mut observers = vec![NullObserver; self.links.len()];
        self.run_observed(seed, warmup, end, threads, &mut observers)
    }

    /// Run every link over `[0, end)` measuring `[warmup, end)`, with
    /// `observers[i]` receiving link `i`'s event stream (each hook
    /// carries the link index, so per-link tracers can later be merged
    /// with [`Tracer::merged_links_jsonl`](qbm_obs::Tracer)).
    ///
    /// `threads` is the shard width: how many wave-mate links advance
    /// concurrently inside each epoch. Results — statistics and every
    /// observer's record stream — are byte-identical for any value;
    /// see the module docs for why.
    ///
    /// Returns one [`SimResult`] per link, in link-index order, all
    /// carrying `seed` (per-link source seeds are the topology
    /// builder's concern — see `scenarios`).
    /// Preparation is O(links + flows).
    pub fn run_observed<O>(
        self,
        seed: u64,
        warmup: Time,
        end: Time,
        threads: usize,
        observers: &mut [O],
    ) -> Vec<SimResult>
    where
        O: Observer + Send,
    {
        let n = self.links.len();
        assert!(n > 0, "empty fabric");
        assert_eq!(observers.len(), n, "one observer per link");

        // Closed-loop path wiring (DESIGN.md §16), skipped outright on
        // an open-loop fabric. Walk every flow's relay chain back to
        // its path origin; when the origin's source reacts to feedback,
        // the chain's links are rewired: the origin applies losses
        // locally (`Local`), every relay buffers its signals for the
        // end-of-epoch drain (`Remote`), and only the terminal hop —
        // the one feeding no further edge — reports `Delivered`.
        // `fb_origin[l][f]` is the (link, flow) a relay signal of link
        // `l`'s flow `f` routes home to.
        let mut mode_overrides: Vec<(usize, u32, FeedbackMode)> = Vec::new();
        let mut fb_origin: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let closed = |r: &Router<P, S>| (0..r.n_flows()).any(|f| r.flow_is_closed_loop(f));
        if self.links.iter().any(closed) {
            for (l, link) in self.links.iter().enumerate() {
                for f in 0..link.n_flows() as u32 {
                    let (ol, of) = self.origin_of(l as u32, f);
                    if !self.links[ol as usize].flow_is_closed_loop(of as usize) {
                        continue;
                    }
                    let lost = if ol as usize == l {
                        Leg::Local
                    } else {
                        let table = &mut fb_origin[l];
                        table.resize(link.n_flows(), UNWIRED);
                        table[f as usize] = (ol, of);
                        Leg::Remote
                    };
                    let terminal = self.feeds[l][f as usize] == UNWIRED;
                    let delivered = if terminal { lost } else { Leg::Off };
                    mode_overrides.push((l, f, FeedbackMode { lost, delivered }));
                }
            }
        }

        // Wrap each router in a paused engine. Per-flow timer slots
        // cover a link's flows up to its last unfed one; relay flows
        // past it exist only as log entries. Each link records one
        // departure log per destination link, numbered in order of
        // first use; a destination numbers its log slots in link order
        // of its sources, so the handoff list comes out sorted by
        // source link. A link opens a new wave when one of its feeders
        // is in the current wave: `waves` holds each wave's first link.
        let Fabric {
            links,
            feeds,
            fed_by,
            epoch,
        } = self;
        let mut engines: Vec<LinkEngine<P, S, IndexedTimers>> = Vec::with_capacity(n);
        let mut handoffs: Vec<Handoff> = Vec::new();
        let mut waves: Vec<usize> = vec![0];
        let (mut in_logs, mut log_of) = (vec![0usize; n], vec![usize::MAX; n]);
        for (link, router) in links.into_iter().enumerate() {
            let fed_by = &fed_by[link];
            let wave = waves.last().copied().unwrap_or(0);
            if fed_by.iter().any(|&p| p != UNWIRED && p.0 as usize >= wave) {
                waves.push(link);
            }
            for (f, &feeder) in fed_by.iter().enumerate() {
                if feeder == UNWIRED {
                    assert!(
                        router.flow_has_source(f),
                        "flow {f} of link {link} has no source and no feeder"
                    );
                } else {
                    assert!(
                        router.flow_is_trace_fed(f),
                        "a relay flow of link {link} is not trace-fed"
                    );
                }
            }
            let timed = fed_by
                .iter()
                .rposition(|&p| p == UNWIRED)
                .map_or(0, |i| i + 1);
            let mut dsts: Vec<usize> = Vec::new();
            let route: Vec<(u32, u32)> = feeds[link]
                .iter()
                .map(|&(dl, df)| {
                    let d = dl as usize;
                    if (dl, df) == UNWIRED {
                        return UNWIRED;
                    } else if log_of[d] == usize::MAX {
                        log_of[d] = dsts.len();
                        dsts.push(d);
                    }
                    (log_of[d] as u32, df)
                })
                .collect();
            for (log, &dst) in dsts.iter().enumerate() {
                handoffs.push(Handoff {
                    src: link,
                    log,
                    dst,
                    slot: in_logs[dst],
                });
                in_logs[dst] += 1;
                log_of[dst] = usize::MAX;
            }
            let outbox = (!dsts.is_empty()).then(|| Outbox::new(route, dsts.len()));
            let events = IndexedTimers::with_logs(timed, in_logs[link]);
            let engine = LinkEngine::new(router, warmup, end, seed, outbox, events, link as u32);
            engines.push(engine);
        }
        waves.push(n);
        for &(l, f, mode) in &mode_overrides {
            engines[l].set_feedback_mode(FlowId(f), mode);
        }
        // The wiring tables are dead once engines and handoffs exist;
        // free them before the epoch loop instead of holding 16 B per
        // flow-link through the whole run.
        drop((feeds, fed_by, mode_overrides));

        for (e, o) in engines.iter_mut().zip(observers.iter_mut()) {
            e.prime(o);
        }

        // The epoch loop: advance wave by wave to each horizon, handing
        // logs down between waves.
        let mut horizon = Time::ZERO;
        while horizon < end {
            horizon = if end.as_nanos() - horizon.as_nanos() <= epoch.as_nanos() {
                end
            } else {
                horizon + epoch
            };
            let mut cursor = 0usize;
            for w in waves.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                advance_level(
                    &mut engines[lo..hi],
                    &mut observers[lo..hi],
                    horizon,
                    threads,
                );
                while let Some(&h) = handoffs.get(cursor).filter(|h| h.src < hi) {
                    handoff(&mut engines, h);
                    cursor += 1;
                }
            }
            // The feedback return leg: after every wave reached this
            // horizon, drain each link's buffered cross-link signals —
            // serially, in link order — and apply them to the origin
            // flow stamped at the horizon. Fixed order + a
            // simulation-time stamp make the drain byte-identical at
            // any shard width; the horizon stamp is also why
            // closed-loop runs quantize feedback latency to the epoch
            // (see DESIGN.md §16) — unlike the forward (log) direction,
            // the return leg points *up* the link order, so it cannot be
            // exact within an epoch. An origin always precedes its
            // relays, so it lies in the `head` half of the split.
            for (l, origins) in fb_origin.iter().enumerate() {
                let (head, tail) = engines.split_at_mut(l);
                for ev in tail[0].fb_out.drain(..) {
                    let (ol, of) = origins[ev.flow.index()];
                    head[ol as usize].apply_feedback(FlowId(of), horizon, ev.fb);
                }
            }
        }

        engines
            .into_iter()
            .zip(observers.iter_mut())
            .map(|(engine, o)| engine.finish(o).0)
            .collect()
    }
}

/// Advance every engine of one wave to `horizon`, sharding the wave
/// across up to `threads` scoped threads. Chunking is by position only
/// — engines share nothing, so the split affects wall-clock, never
/// results.
fn advance_level<P, S, O>(
    engines: &mut [LinkEngine<P, S, IndexedTimers>],
    obs: &mut [O],
    horizon: Time,
    threads: usize,
) where
    P: BufferPolicy,
    S: Scheduler,
    O: Observer + Send,
{
    if threads <= 1 || engines.len() <= 1 {
        for (e, o) in engines.iter_mut().zip(obs.iter_mut()) {
            e.advance(horizon, o);
        }
        return;
    }
    let chunk = engines.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (es, os) in engines.chunks_mut(chunk).zip(obs.chunks_mut(chunk)) {
            s.spawn(move || {
                for (e, o) in es.iter_mut().zip(os.iter_mut()) {
                    e.advance(horizon, o);
                }
            });
        }
    });
}

/// Hand one departure log down: swap the source's recorded log into
/// the destination's (drained) log slot, which gives the source back
/// the drained buffer to record into next.
fn handoff<P, S>(engines: &mut [LinkEngine<P, S, IndexedTimers>], h: Handoff)
where
    P: BufferPolicy,
    S: Scheduler,
{
    debug_assert!(h.src < h.dst, "a log must point down the link order");
    let (head, tail) = engines.split_at_mut(h.dst);
    let (Some(src), Some(dst)) = (head.get_mut(h.src), tail.first_mut()) else {
        debug_assert!(false, "handoff between unknown engines");
        return;
    };
    if let Some(log) = src.outbox.as_mut().and_then(|o| o.log_mut(h.log)) {
        dst.events.refill_log(h.slot, log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{incast_fanin, LinkProfile, LINK_RATE};
    use qbm_core::policy::SharedBuffer;
    use qbm_core::units::Rate;
    use qbm_sched::Fifo;
    use qbm_traffic::{table1, CbrSource};

    fn tiny_incast() -> Fabric {
        incast_fanin(
            2,
            &table1()[..2],
            LINK_RATE,
            Rate::from_mbps(40.0),
            &LinkProfile::default(),
            5,
        )
    }

    #[test]
    fn epoch_length_does_not_change_results() {
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs(1));
        let coarse = tiny_incast().run(5, warmup, end, 1);
        let fine = tiny_incast()
            .with_epoch(Dur::from_millis(73))
            .run(5, warmup, end, 1);
        assert_eq!(coarse, fine, "epoch length leaked into results");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs(1));
        let serial = tiny_incast().run(5, warmup, end, 1);
        let wide = tiny_incast().run(5, warmup, end, 8);
        assert_eq!(serial, wide, "shard width leaked into results");
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_link_graph_rejected() {
        let mut f = tiny_incast();
        // Aggregator (link 2) back into sender 0: a 2-link cycle.
        f.connect(2, 0, 0, 0);
        let _ = f.run(5, Time::ZERO, Time::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "already feeds an edge")]
    fn double_use_of_a_source_flow_rejected() {
        let mut f = tiny_incast();
        f.connect(0, 1, 1, 0);
    }

    /// A FIFO link at 48 Mb/s: `sources` 8 Mb/s CBR flows, then
    /// `relays` relay flows.
    fn cbr_link(sources: usize, relays: usize) -> Router {
        let cbr = CbrSource::new(Rate::from_mbps(8.0), 500, Time::ZERO);
        Router::relaying(
            Rate::from_mbps(48.0),
            Box::new(SharedBuffer::new(100_000, sources + relays)),
            Box::new(Fifo::new()),
            vec![cbr; sources],
            relays,
        )
    }

    #[test]
    #[should_panic(expected = "points backward")]
    fn backward_edge_rejected_at_connect() {
        let mut f: Fabric = Fabric::new();
        f.add_link(cbr_link(1, 1));
        f.add_link(cbr_link(1, 0));
        f.connect(1, 0, 0, 0);
    }

    /// `[A, B fed by A, C]` runs in waves `{A}, {B, C}`; the same links
    /// added as `[A, C, B fed by A]` run in waves `{A, C}, {B}`. Matched
    /// by link, the results agree at any shard width and epoch.
    #[test]
    fn independent_link_after_a_relay_matches_link_before_it() {
        let build = |c_before_b: bool, epoch: Dur| {
            let mut f: Fabric = Fabric::new().with_epoch(epoch);
            let a = f.add_link(cbr_link(3, 0));
            let (b, c) = if c_before_b {
                let c = f.add_link(cbr_link(4, 0));
                (f.add_link(cbr_link(3, 1)), c)
            } else {
                let b = f.add_link(cbr_link(3, 1));
                (b, f.add_link(cbr_link(4, 0)))
            };
            f.connect(a, 0, b, 3);
            (f, [a, b, c])
        };
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs(1));
        for epoch in [DEFAULT_EPOCH, Dur::from_millis(37)] {
            for threads in [1, 4] {
                let runs = [false, true].map(|c_before_b| {
                    let (f, ids) = build(c_before_b, epoch);
                    let res = f.run(5, warmup, end, threads);
                    ids.map(|l| res[l as usize].clone())
                });
                assert_eq!(runs[0], runs[1], "epoch {epoch:?}, {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "flow 2 of link 1 has no source and no feeder")]
    fn unfed_source_less_flow_rejected_at_run_start() {
        let mut f: Fabric = Fabric::new();
        let up = f.add_link(cbr_link(1, 0));
        let dst = f.add_link(cbr_link(1, 2));
        f.connect(up, 0, dst, 1);
        let _ = f.run(5, Time::ZERO, Time::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "a relay flow of link 1 is not trace-fed")]
    fn fed_flow_with_a_non_trace_source_rejected() {
        let mut f: Fabric = Fabric::new();
        let up = f.add_link(cbr_link(1, 0));
        let dst = f.add_link(cbr_link(2, 0));
        f.connect(up, 0, dst, 1);
        let _ = f.run(5, Time::ZERO, Time::from_secs(1), 1);
    }
}
