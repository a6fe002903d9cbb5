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
//!
//! # Source stages
//!
//! A link whose sourced flows are all open loop — nothing it does can
//! reach its sources — pulls them through a **source stage** instead
//! of per-flow timers of its own: the router's sources move into a
//! producer that sorts their emissions window by window (see
//! `SourceStage`) and emits `(time, flow, len)` in `(time, flow)` order
//! into one extra log slot of the link. The producer works in chunks that end
//! only between distinct instants, each carrying a watermark — the next
//! pending emission instant — and the link advances to
//! `min(horizon, watermark)` per chunk. That is exact for the reason
//! epochs are: the link has then seen every arrival before the
//! watermark, the link engine's `advance` resumes at any horizon, and
//! a log slot ties on its head's flow, the tie the flow's timer would
//! carry.
//! When a wave is one staged link and `threads ≥ 2`, the producer runs
//! on a scoped thread of its own behind a bounded channel, so the
//! sources leave the link's critical path; otherwise the same chunk
//! loop runs inline. Closed-loop links keep per-flow engine timers:
//! feedback must reach a source at the instant a packet pops.

use crate::event::{IndexedTimers, LogEntry, Outbox};
use crate::router::{FeedbackMode, Leg, LinkEngine, Router};
use crate::stats::SimResult;
use qbm_core::flow::FlowId;
use qbm_core::policy::BufferPolicy;
use qbm_core::units::{Dur, Time};
use qbm_obs::{NullObserver, Observer};
use qbm_sched::Scheduler;
use qbm_traffic::{Source, SourceKind};
use std::sync::mpsc;

/// Default epoch length: 1 s of simulation time. Long enough that
/// barrier overhead vanishes against per-epoch event work, short
/// enough that a departure log holds ~one second of departures (a few
/// hundred KiB per link at the paper's rates).
pub const DEFAULT_EPOCH: Dur = Dur::from_secs(1);

/// The `(link, flow)` endpoint of an unwired flow.
const UNWIRED: (u32, u32) = (u32::MAX, u32::MAX);

/// Entries after which a source-stage chunk ends at the next change of
/// instant (a same-instant run is never split, so it may overfill).
const STAGE_CHUNK: usize = 4096;

/// Emissions at which a source-stage window closes: enough to spread
/// a window's fixed costs, few enough that the link never waits long
/// on one window's sort.
const STAGE_WINDOW: usize = 2 * STAGE_CHUNK;

/// Time buckets per source-stage calendar ring.
const STAGE_BUCKETS: usize = 1024;

/// Buckets a source-stage window spans at the rate seen so far.
const STAGE_SPLIT: u64 = 8;

/// Filled chunks a threaded source stage may run ahead of its link.
const STAGE_DEPTH: usize = 4;

/// The log slot a source stage fills: the first, so a stage entry wins
/// a full `(time, flow)` tie against an upstream log exactly as the
/// flow's own timer slot did.
const STAGE_SLOT: usize = 0;

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
        // An open-loop origin's timers move into its source stage,
        // which fills log slot `STAGE_SLOT`; its upstream logs follow.
        let Fabric {
            links,
            feeds,
            fed_by,
            epoch,
        } = self;
        let timed: Vec<usize> = fed_by
            .iter()
            .map(|fed_by| {
                fed_by
                    .iter()
                    .rposition(|&p| p == UNWIRED)
                    .map_or(0, |i| i + 1)
            })
            .collect();
        let staged: Vec<bool> = links
            .iter()
            .zip(&timed)
            .map(|(router, &timed)| timed > 0 && !closed(router))
            .collect();
        let mut engines: Vec<LinkEngine<P, S, IndexedTimers>> = Vec::with_capacity(n);
        let mut stages: Vec<Option<SourceStage>> = Vec::with_capacity(n);
        let mut handoffs: Vec<Handoff> = Vec::new();
        let mut waves: Vec<usize> = vec![0];
        let mut in_logs: Vec<usize> = staged.iter().map(|&s| usize::from(s)).collect();
        let mut log_of = vec![usize::MAX; n];
        for (link, mut router) in links.into_iter().enumerate() {
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
            let stage = staged[link]
                .then(|| SourceStage::new(router.take_sources(), timed[link], STAGE_WINDOW));
            let flow_slots = if staged[link] { 0 } else { timed[link] };
            let events = IndexedTimers::with_logs(flow_slots, in_logs[link]);
            let engine = LinkEngine::new(router, warmup, end, seed, outbox, events, link as u32);
            engines.push(engine);
            stages.push(stage);
        }
        waves.push(n);
        for &(l, f, mode) in &mode_overrides {
            engines[l].set_feedback_mode(FlowId(f), mode);
        }
        // The wiring tables are dead once engines and handoffs exist;
        // free them before the epoch loop instead of holding 16 B per
        // flow-link through the whole run.
        drop((feeds, fed_by, mode_overrides));

        // The epoch loop: advance wave by wave to each horizon, handing
        // logs down between waves. A wave is primed — its per-flow
        // statistics built — just before its first advance, and on this
        // thread, not in a shard thread whose malloc arena would keep
        // the memory; its source stages and departure-log buffers are
        // freed once it reaches `end` and has handed its last logs down.
        // So a link holds its per-flow memory only while it runs.
        let mut horizon = Time::ZERO;
        while horizon < end {
            let first = horizon == Time::ZERO;
            horizon = if end.as_nanos() - horizon.as_nanos() <= epoch.as_nanos() {
                end
            } else {
                horizon + epoch
            };
            let mut cursor = 0usize;
            for w in waves.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                if first {
                    for (e, o) in engines[lo..hi].iter_mut().zip(&mut observers[lo..hi]) {
                        e.prime(o);
                    }
                }
                advance_level(
                    &mut engines[lo..hi],
                    &mut stages[lo..hi],
                    &mut observers[lo..hi],
                    horizon,
                    threads,
                );
                while let Some(&h) = handoffs.get(cursor).filter(|h| h.src < hi) {
                    handoff(&mut engines, h);
                    cursor += 1;
                }
                if horizon == end {
                    stages[lo..hi].fill_with(|| None);
                    // Every log of the wave is drained and handed down:
                    // free the inbound slots and the outbound buffers the
                    // last handoffs swapped back.
                    for e in &mut engines[lo..hi] {
                        e.events.release_logs();
                        if let Some(outbox) = e.outbox.as_mut() {
                            outbox.release();
                        }
                    }
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
            .map(|(engine, o)| engine.finish(o))
            .collect()
    }
}

/// Advance every engine of one wave to `horizon`, sharding the wave
/// across up to `threads` scoped threads. Chunking is by position only
/// — engines share nothing, so the split affects wall-clock, never
/// results. A wave of one staged link spends the idle second thread on
/// its source stage instead.
fn advance_level<P, S, O>(
    engines: &mut [LinkEngine<P, S, IndexedTimers>],
    stages: &mut [Option<SourceStage>],
    obs: &mut [O],
    horizon: Time,
    threads: usize,
) where
    P: BufferPolicy,
    S: Scheduler,
    O: Observer + Send,
{
    if let ([e], [Some(stage)], [o]) = (&mut *engines, &mut *stages, &mut *obs) {
        if threads >= 2 {
            stage.feed_threaded(e, horizon, o);
            return;
        }
    }
    if threads <= 1 || engines.len() <= 1 {
        for ((e, st), o) in engines
            .iter_mut()
            .zip(stages.iter_mut())
            .zip(obs.iter_mut())
        {
            advance_link(e, st, horizon, o);
        }
        return;
    }
    let chunk = engines.len().div_ceil(threads);
    std::thread::scope(|s| {
        let shards = engines
            .chunks_mut(chunk)
            .zip(stages.chunks_mut(chunk))
            .zip(obs.chunks_mut(chunk));
        for ((es, ss), os) in shards {
            s.spawn(move || {
                for ((e, st), o) in es.iter_mut().zip(ss.iter_mut()).zip(os.iter_mut()) {
                    advance_link(e, st, horizon, o);
                }
            });
        }
    });
}

/// Advance one link to `horizon` on this thread, through its source
/// stage if it has one.
fn advance_link<P, S, O>(
    engine: &mut LinkEngine<P, S, IndexedTimers>,
    stage: &mut Option<SourceStage>,
    horizon: Time,
    obs: &mut O,
) where
    P: BufferPolicy,
    S: Scheduler,
    O: Observer,
{
    match stage {
        Some(stage) => stage.feed(engine, horizon, obs),
        None => engine.advance(horizon, obs),
    }
}

/// The source stage of an open-loop origin link (see the module docs):
/// its sources, pulled ahead of the link in `(time, flow)` order one
/// sorted **window** at a time.
///
/// Every sourced flow's pending emission sits in a calendar: a ring of
/// [`STAGE_BUCKETS`] time buckets `width` ns wide from `base`, each a
/// list of flows, plus a `far` list for emissions past the ring. A
/// window is a run of consecutive buckets, closed once it holds
/// `target` emissions (or at the horizon): each bucket's flows are
/// pulled, in flow order, for every emission before the bucket's end,
/// the batch is sorted in place by `(time, flow, pull order)`, and each
/// flow's next emission goes back into the calendar. So a window costs
/// its own emissions and flows — no per-emission priority-queue update
/// and no pass over all flows — and, because windows end between
/// distinct instants, the sorted windows concatenate to exactly the
/// `(time, flow)` order per-flow timers would pop. When the ring is
/// used up, the `far` list is spread over a new ring whose buckets are
/// sized, at the rate seen so far, to [`STAGE_SPLIT`] per window. The
/// lists swap buffers with a scratch list as they are emptied, so the
/// steady state allocates nothing.
struct SourceStage {
    /// The link's sourced flows' sources, moved out of its router.
    sources: Vec<SourceKind>,
    /// Per sourced flow with a slot on the link: its pending emission's
    /// `(instant in ns, length)`.
    due: Vec<(u64, u32)>,
    /// Emissions a window closes at.
    target: usize,
    /// Start of bucket 0, ns.
    base: u64,
    /// Bucket width, ns (at least 1).
    width: u64,
    /// The flows due in each bucket.
    buckets: Vec<Vec<u32>>,
    /// First bucket not yet pulled.
    cur: usize,
    /// The flows due at or past the ring's end, and their earliest
    /// instant.
    far: Vec<u32>,
    far_lo: u64,
    /// Emissions windowed so far, and the earliest first emission: the
    /// rate that sizes each new ring.
    taken: u64,
    origin: u64,
    /// The open window, sorted: `time << 64 | flow << 32 | i`, where
    /// `lens[i]` is the emission's length and `i` its pull order.
    window: Vec<u128>,
    lens: Vec<u32>,
    /// The next unread key of `window`.
    next: usize,
    /// The emptied list whose buffer the next emptied list takes.
    scratch: Vec<u32>,
    /// Drained chunk buffers, recycled across chunks and epochs.
    spare: Vec<Vec<LogEntry>>,
}

impl SourceStage {
    /// A stage pulling the first `timed` of `sources`, with windows
    /// closing at `target` emissions (at least 1; [`STAGE_WINDOW`] in
    /// a run). The window size moves only the stage's cost, never its
    /// output.
    // qbm-lint: cold(per-run construction, before the event loop)
    fn new(mut sources: Vec<SourceKind>, timed: usize, target: usize) -> SourceStage {
        let mut stage = SourceStage {
            due: vec![(0, 0); timed.min(sources.len())],
            sources: Vec::new(),
            target: target.max(1),
            base: 0,
            width: 1,
            buckets: vec![Vec::new(); STAGE_BUCKETS],
            cur: STAGE_BUCKETS,
            far: Vec::new(),
            far_lo: u64::MAX,
            taken: 0,
            origin: u64::MAX,
            window: Vec::new(),
            lens: Vec::new(),
            next: 0,
            scratch: Vec::new(),
            spare: Vec::new(),
        };
        let mut first = Vec::with_capacity(stage.due.len());
        for (f, source) in sources.iter_mut().take(stage.due.len()).enumerate() {
            if let Some(e) = source.next_emission() {
                stage.schedule(f as u32, e.time.as_nanos(), e.len);
                first.push(e.time.as_nanos());
            }
        }
        // Before any rate is seen, the first ring spans the earliest
        // `target` first emissions.
        stage.origin = stage.far_lo;
        if !first.is_empty() {
            let k = stage.target.min(first.len()) - 1;
            let (_, &mut t_k, _) = first.select_nth_unstable(k);
            stage.width = ((t_k - stage.origin) / STAGE_BUCKETS as u64).max(1);
        }
        stage.sources = sources;
        stage
    }

    /// Make `(time, len)` flow `f`'s pending emission and file the flow
    /// in its bucket, or in the `far` list past the ring (and before
    /// the first ring, when every bucket counts as pulled).
    #[inline]
    fn schedule(&mut self, f: u32, time: u64, len: u32) {
        let Some(d) = self.due.get_mut(f as usize) else {
            debug_assert!(false, "flow {f} has no calendar slot");
            return;
        };
        *d = (time, len);
        let k = (time.saturating_sub(self.base) / self.width).min(usize::MAX as u64) as usize;
        match self.buckets.get_mut(k).filter(|_| k >= self.cur) {
            Some(bucket) => bucket.push(f),
            None => {
                self.far_lo = self.far_lo.min(time);
                self.far.push(f);
            }
        }
    }

    /// Start a new ring at the earliest `far` emission and spread the
    /// `far` list over it, swapping its buffer with the empty `spare`;
    /// false if no emission is pending. Once emissions have been seen,
    /// the buckets are sized to about `target / STAGE_SPLIT` emissions
    /// each at their mean rate.
    fn turn(&mut self, spare: &mut Vec<u32>) -> bool {
        if self.far.is_empty() {
            return false;
        }
        let lo = self.far_lo;
        if self.taken > 0 && lo > self.origin {
            let per_bucket = (self.target as u64).div_ceil(STAGE_SPLIT);
            let width = (lo - self.origin) as u128 * per_bucket as u128 / self.taken as u128;
            self.width = width.clamp(1, u64::MAX as u128 / STAGE_BUCKETS as u128) as u64;
        }
        self.base = lo;
        self.cur = 0;
        self.far_lo = u64::MAX;
        std::mem::swap(spare, &mut self.far);
        for &f in spare.iter() {
            if let Some(&(time, len)) = self.due.get(f as usize) {
                self.schedule(f, time, len);
            }
        }
        spare.clear();
        true
    }

    /// Open the next window before `horizon`: bucket by bucket, pull
    /// every emission before the bucket's end (or `horizon`, if sooner)
    /// of the bucket's flows in flow order, filing each flow's next
    /// emission and sorting the bucket's emissions, until the window
    /// holds `target` emissions. False if no emission is pending before
    /// `horizon`.
    fn open(&mut self, horizon: Time) -> bool {
        self.window.clear();
        self.lens.clear();
        self.next = 0;
        let mut flows = std::mem::take(&mut self.scratch);
        while self.window.len() < self.target {
            while self.buckets.get(self.cur).is_some_and(Vec::is_empty) {
                self.cur += 1;
            }
            if self.cur >= STAGE_BUCKETS {
                if self.turn(&mut flows) {
                    continue;
                }
                break;
            }
            let start = self.base.saturating_add(self.cur as u64 * self.width);
            if start >= horizon.as_nanos() {
                break;
            }
            let bucket_end = start.saturating_add(self.width);
            let end = bucket_end.min(horizon.as_nanos());
            if let Some(bucket) = self.buckets.get_mut(self.cur) {
                std::mem::swap(bucket, &mut flows);
            }
            if end == bucket_end {
                self.cur += 1;
            }
            flows.sort_unstable();
            let from = self.window.len();
            for &f in &flows {
                self.pull(f, end);
            }
            flows.clear();
            // Buckets are disjoint in time, so sorting each bucket's run
            // sorts the window.
            if let Some(run) = self.window.get_mut(from..) {
                run.sort_unstable();
            }
            if end < bucket_end {
                // Cut at the horizon: nothing else is due before it.
                break;
            }
        }
        self.scratch = flows;
        self.taken += self.window.len() as u64;
        !self.window.is_empty()
    }

    /// Add flow `f`'s emissions before `end` to the window and file the
    /// first one at or past it.
    #[inline]
    fn pull(&mut self, f: u32, end: u64) {
        let (Some(&(mut time, mut len)), Some(source)) =
            (self.due.get(f as usize), self.sources.get_mut(f as usize))
        else {
            debug_assert!(false, "flow {f} has no source");
            return;
        };
        while time < end {
            let key = (time as u128) << 64 | (f as u128) << 32 | self.lens.len() as u128;
            self.window.push(key);
            self.lens.push(len);
            match source.next_emission() {
                Some(e) => (time, len) = (e.time.as_nanos(), e.len),
                None => return,
            }
        }
        self.schedule(f, time, len);
    }

    /// The next emission before `horizon` in `(time, flow)` order, left
    /// unread; opens windows as needed.
    #[inline]
    fn peek(&mut self, horizon: Time) -> Option<LogEntry> {
        if self.next >= self.window.len() && !self.open(horizon) {
            return None;
        }
        let &key = self.window.get(self.next)?;
        Some(LogEntry {
            time: Time((key >> 64) as u64),
            flow: (key >> 32) as u32,
            len: self.lens.get(key as u32 as usize).copied().unwrap_or(0),
        })
    }

    /// Append the next emissions before `horizon` to the empty `chunk`
    /// in `(time, flow)` order, ending after [`STAGE_CHUNK`] entries at
    /// the next change of instant. Returns the watermark: every
    /// emission before it is now in a chunk — the next pending
    /// emission's instant, or `horizon` once none is left before it.
    fn fill(&mut self, horizon: Time, chunk: &mut Vec<LogEntry>) -> Time {
        debug_assert!(chunk.is_empty(), "a chunk is filled from empty");
        while let Some(e) = self.peek(horizon) {
            if chunk.len() >= STAGE_CHUNK && chunk.last().is_some_and(|l| l.time < e.time) {
                return e.time;
            }
            chunk.push(e);
            self.next += 1;
        }
        horizon
    }

    /// Advance `engine` to `horizon` chunk by chunk on this thread:
    /// fill, hand the chunk to the log slot, advance to the watermark.
    /// The slot drains every chunk, since each entry precedes its
    /// watermark.
    fn feed<P, S, O>(
        &mut self,
        engine: &mut LinkEngine<P, S, IndexedTimers>,
        horizon: Time,
        obs: &mut O,
    ) where
        P: BufferPolicy,
        S: Scheduler,
        O: Observer,
    {
        let mut chunk = self.spare.pop().unwrap_or_default();
        loop {
            let mark = self.fill(horizon, &mut chunk);
            engine.events.refill_log(STAGE_SLOT, &mut chunk);
            engine.advance(mark, obs);
            if mark >= horizon {
                break;
            }
        }
        self.spare.push(chunk);
    }

    /// [`SourceStage::feed`] with the filling on a scoped thread of its
    /// own, up to [`STAGE_DEPTH`] chunks ahead of the link. Chunk
    /// buffers circulate: the link sends each drained buffer back, and
    /// the `STAGE_DEPTH + 1` the producer may hold at once, topped up
    /// before it starts, are back in `spare` when it is done.
    fn feed_threaded<P, S, O>(
        &mut self,
        engine: &mut LinkEngine<P, S, IndexedTimers>,
        horizon: Time,
        obs: &mut O,
    ) where
        P: BufferPolicy,
        S: Scheduler,
        O: Observer,
    {
        while self.spare.len() <= STAGE_DEPTH {
            self.spare.push(Vec::with_capacity(STAGE_CHUNK));
        }
        let (full_tx, full_rx) = mpsc::sync_channel::<(Vec<LogEntry>, Time)>(STAGE_DEPTH);
        let (free_tx, free_rx) = mpsc::channel::<Vec<LogEntry>>();
        let stage = &mut *self;
        let joined = std::thread::scope(|s| {
            // Owned by the scope body, so a panicking link drops both
            // channel ends and the producer stops instead of blocking.
            let (full_rx, free_tx) = (full_rx, free_tx);
            let producer = s.spawn(move || {
                loop {
                    let mut chunk = match stage.spare.pop() {
                        Some(chunk) => chunk,
                        None => free_rx.recv().unwrap_or_default(),
                    };
                    let mark = stage.fill(horizon, &mut chunk);
                    if full_tx.send((chunk, mark)).is_err() || mark >= horizon {
                        break;
                    }
                }
                free_rx
            });
            for (mut chunk, mark) in full_rx {
                engine.events.refill_log(STAGE_SLOT, &mut chunk);
                engine.advance(mark, obs);
                // The producer holds the receiver until it returns it.
                let _ = free_tx.send(chunk);
            }
            producer.join()
        });
        match joined {
            Ok(free_rx) => self.spare.extend(free_rx.try_iter()),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
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
    use qbm_core::flow::FlowSpec;
    use qbm_core::policy::{BufferSharing, SharedBuffer};
    use qbm_core::units::Rate;
    use qbm_obs::Tracer;
    use qbm_sched::Fifo;
    use qbm_traffic::{table1, CbrSource, Emission, SourceKind, TraceSource};

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

    /// An origin link of `n` in-phase CBR flows (8 and 16 kb/s, 500 B)
    /// into a 20 Mb/s FIFO: every quarter second holds a same-instant
    /// run of `n/2` or `n` arrivals.
    fn in_phase_origin(n: usize) -> Router {
        let sources: Vec<CbrSource> = (0..n as u64)
            .map(|i| CbrSource::new(Rate::from_bps(8_000 * (1 + i % 2)), 500, Time::ZERO))
            .collect();
        Router::new(
            Rate::from_mbps(20.0),
            Box::new(SharedBuffer::new(1_000_000, n)),
            Box::new(Fifo::new()),
            sources,
        )
    }

    /// A same-instant run longer than a source-stage chunk is never
    /// split, so the staged link equals the router run on its own — at
    /// either shard width (inline and threaded stage) and at an epoch
    /// whose horizons land on emission instants.
    #[test]
    fn source_stage_matches_router_run_across_chunk_boundaries() {
        let n = STAGE_CHUNK + 1000;
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs_f64(1.2));
        let want = in_phase_origin(n).run(warmup, end, 5);
        assert!(want.flows.iter().all(|f| f.offered_pkts > 0));
        for epoch in [DEFAULT_EPOCH, Dur::from_millis(250)] {
            for threads in [1, 2] {
                let mut f: Fabric = Fabric::new().with_epoch(epoch);
                f.add_link(in_phase_origin(n));
                let got = f.run(5, warmup, end, threads);
                assert!(got == [want.clone()], "epoch {epoch:?}, {threads} threads");
            }
        }
    }

    /// A §3.3 sharing link of 48 in-phase 400 kb/s CBR flows (500 B)
    /// into a 20 Mb/s FIFO with a 40-packet buffer: every 10 ms burst
    /// overruns it, and its observer gets a `share` record when primed
    /// and at every change of the pools.
    fn sharing_origin() -> Router {
        let rate = Rate::from_mbps(20.0);
        let specs: Vec<FlowSpec> = (0..48)
            .map(|i| {
                FlowSpec::builder(FlowId(i))
                    .token_rate(Rate::from_kbps(400.0))
                    .bucket(1000)
                    .build()
            })
            .collect();
        let cbr = CbrSource::new(Rate::from_kbps(400.0), 500, Time::ZERO);
        Router::new(
            rate,
            Box::new(BufferSharing::new(20_000, rate, &specs, 5_000)),
            Box::new(Fifo::new()),
            vec![cbr; 48],
        )
    }

    /// A staged link is primed when its wave first runs: its trace,
    /// from the t = 0 `share` record on, and its results equal the
    /// router run of the same sources, inline and threaded stage, at
    /// two epochs.
    #[test]
    fn staged_link_traces_like_a_router_run() {
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs_f64(1.2));
        let mut tracer = Tracer::default();
        let want = sharing_origin().run_with(warmup, end, 5, &mut tracer);
        let want_trace = tracer.to_jsonl();
        assert_eq!(tracer.truncated(), 0, "the trace must be complete");
        let first = want_trace.lines().nth(1).unwrap_or_default();
        assert!(first.starts_with(r#"{"ev":"share","t":0,"#), "{first}");
        assert!(
            want.flows.iter().any(|f| f.dropped_pkts > 0),
            "no congestion"
        );
        for epoch in [DEFAULT_EPOCH, Dur::from_millis(250)] {
            for threads in [1, 2] {
                let mut f: Fabric = Fabric::new().with_epoch(epoch);
                f.add_link(sharing_origin());
                let mut tracers = [Tracer::default()];
                let got = f.run_observed(5, warmup, end, threads, &mut tracers);
                assert!(got == [want.clone()], "epoch {epoch:?}, {threads} threads");
                assert!(
                    tracers[0].to_jsonl() == want_trace,
                    "trace differs: epoch {epoch:?}, {threads} threads"
                );
            }
        }
    }

    /// A staged link that also relays: 40 sourced CBR flows emitting
    /// from 100 µs on, every millisecond (4 Mb/s, even flows) or every
    /// other (2 Mb/s, odd flows), plus relay flow 40 fed by an upstream
    /// link whose one 4 Mb/s flow departs at the same instants (1 ms
    /// periods, 100 µs transmission) — so stage entries and upstream
    /// log entries tie at every instant, across many chunks, into a
    /// slightly overloaded 120 Mb/s link.
    fn mixed_fabric(epoch: Dur) -> Fabric {
        let mut f: Fabric = Fabric::new().with_epoch(epoch);
        let up = f.add_link(Router::new(
            Rate::from_mbps(40.0),
            Box::new(SharedBuffer::new(100_000, 1)),
            Box::new(Fifo::new()),
            vec![CbrSource::new(Rate::from_mbps(4.0), 500, Time::ZERO)],
        ));
        let start = Time::ZERO + Dur::from_micros(100);
        let sources: Vec<CbrSource> = (0..40u64)
            .map(|i| CbrSource::new(Rate::from_bps(4_000_000 >> (i % 2)), 500, start))
            .collect();
        let mixed = f.add_link(Router::relaying(
            Rate::from_mbps(120.0),
            Box::new(SharedBuffer::new(50_000, 41)),
            Box::new(Fifo::new()),
            sources,
            1,
        ));
        f.connect(up, 0, mixed, 40);
        f
    }

    /// FNV-1a over a string: the golden digest of a `Debug` rendering.
    fn fnv64(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// [`staged_link_with_a_relay_flow_matches_its_golden`]'s digest,
    /// captured before links had source stages.
    const MIXED_GOLDEN: u64 = 0x3133_ef9a_87ba_10b8;

    /// The mixed link's results are pinned to a digest captured before
    /// links had source stages, at both shard widths and two epochs.
    #[test]
    fn staged_link_with_a_relay_flow_matches_its_golden() {
        let (warmup, end) = (Time::from_secs_f64(0.1), Time::from_secs_f64(1.2));
        for epoch in [DEFAULT_EPOCH, Dur::from_millis(250)] {
            for threads in [1, 2] {
                let res = mixed_fabric(epoch).run(5, warmup, end, threads);
                assert!(
                    res[1].flows[40].delivered_pkts > 0,
                    "the relay carried nothing"
                );
                assert!(
                    res[1].flows.iter().any(|f| f.dropped_pkts > 0),
                    "no congestion"
                );
                let digest = fnv64(&format!("{res:?}"));
                assert_eq!(digest, MIXED_GOLDEN, "epoch {epoch:?}, {threads} threads");
            }
        }
    }

    /// [`fed_trace_flow_wins_ties_against_its_relay_log`]'s digest,
    /// captured before links had source stages.
    const TRACE_TIE_GOLDEN: u64 = 0x3e1d_1ca8_6bca_1ca1;

    /// A fed flow backed by a non-empty replay source: its own
    /// emissions (300 B) tie in `(time, flow)` with the relayed
    /// packets (500 B) every millisecond, and the flow's own emission
    /// pops first, as the flow's timer slot beat the log slot.
    #[test]
    fn fed_trace_flow_wins_ties_against_its_relay_log() {
        let build = |epoch: Dur| {
            let mut f: Fabric = Fabric::new().with_epoch(epoch);
            let up = f.add_link(cbr_link(1, 0));
            // Link 0's one flow departs a transmission time after each
            // emission, every 500 µs.
            let start = Time::ZERO + Rate::from_mbps(48.0).transmission_time(500);
            let trace: Vec<Emission> = (0..600u64)
                .map(|k| Emission {
                    time: start + Dur::from_micros(500 * k),
                    len: 300,
                })
                .collect();
            // Flow 2 is unfed, so flow 1 gets a timer slot of its own.
            let cbr = CbrSource::new(Rate::from_mbps(8.0), 500, start);
            let sources: Vec<SourceKind> = vec![
                cbr.clone().into(),
                TraceSource::new(trace).into(),
                cbr.into(),
            ];
            let dst = f.add_link(Router::new(
                Rate::from_mbps(48.0),
                Box::new(SharedBuffer::new(100_000, 3)),
                Box::new(Fifo::new()),
                sources,
            ));
            f.connect(up, 0, dst, 1);
            f
        };
        let (warmup, end) = (Time::from_secs_f64(0.05), Time::from_secs_f64(0.3));
        for epoch in [DEFAULT_EPOCH, Dur::from_millis(100)] {
            for threads in [1, 2] {
                let res = build(epoch).run(5, warmup, end, threads);
                assert!(res[1].flows[1].delivered_pkts > 0);
                let digest = fnv64(&format!("{res:?}"));
                assert_eq!(
                    digest, TRACE_TIE_GOLDEN,
                    "epoch {epoch:?}, {threads} threads"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::{Event, EventCore};
    use proptest::prelude::*;
    use qbm_core::units::Rate;
    use qbm_traffic::{CbrSource, Emission, OnOffSource, TraceSource};

    /// The per-emission stage the sorted one replaced: one
    /// [`IndexedTimers`] slot per timed flow, popped emission by
    /// emission, under the same chunk and watermark rule.
    struct TimerStage {
        sources: Vec<SourceKind>,
        /// Each timed flow's scheduled emission's length.
        pending: Vec<u32>,
        timers: IndexedTimers,
    }

    impl TimerStage {
        fn new(mut sources: Vec<SourceKind>, timed: usize) -> TimerStage {
            let mut pending = vec![0; sources.len()];
            let mut timers = IndexedTimers::with_flows(timed);
            let first = sources
                .iter_mut()
                .zip(&mut pending)
                .take(timed)
                .enumerate()
                .filter_map(|(i, (source, pending))| {
                    let e = source.next_emission()?;
                    *pending = e.len;
                    Some((FlowId(i as u32), e.time))
                });
            timers.schedule_arrivals(first);
            TimerStage {
                sources,
                pending,
                timers,
            }
        }

        fn fill(&mut self, horizon: Time, chunk: &mut Vec<LogEntry>) -> Time {
            let (sources, pending) = (&mut self.sources, &mut self.pending);
            loop {
                let t = match self.timers.peek_time() {
                    Some(t) if t < horizon => t,
                    _ => return horizon,
                };
                if chunk.len() >= STAGE_CHUNK && chunk.last().is_some_and(|e| e.time < t) {
                    return t;
                }
                let mut len = 0;
                let popped = self.timers.pop_refill(|flow| {
                    let f = flow.index();
                    let next = sources[f].next_emission();
                    len = pending[f];
                    pending[f] = next.map_or(0, |e| e.len);
                    next.map(|e| e.time)
                });
                let Some((time, Event::Arrival(flow))) = popped else {
                    panic!("the reference stage pops only arrivals");
                };
                chunk.push(LogEntry {
                    time,
                    flow: flow.0,
                    len,
                });
            }
        }
    }

    /// One source of the mix: in-phase CBR, ON-OFF, or a finite trace
    /// whose runs share an instant (lengths vary within a run, so a
    /// reordered run shows); short traces exhaust early.
    fn source(kind: u8, a: u64, b: u64) -> SourceKind {
        match kind % 3 {
            0 => CbrSource::new(Rate::from_bps(4_000_000 << (a % 4)), 500, Time::ZERO).into(),
            1 => OnOffSource::new(
                Rate::from_mbps(2.0),
                Rate::from_kbps(500.0),
                4_000,
                300 + (a % 3) as u32 * 200,
                b,
            )
            .into(),
            _ => {
                let trace: Vec<Emission> = (0..b % 40)
                    .map(|k| Emission {
                        time: Time((k / (1 + a % 4)) * 3_000_000),
                        len: 100 + k as u32,
                    })
                    .collect();
                TraceSource::new(trace).into()
            }
        }
    }

    proptest! {
        /// The sorted stage hands out exactly the reference's chunks
        /// and watermarks, for any window size (one entry up to every
        /// flow), with some flows untimed, at horizons that fall inside
        /// windows. Enough emissions overall that chunks fill up and
        /// end at changes of instant.
        #[test]
        fn sorted_stage_matches_per_emission_timers(
            mix in proptest::collection::vec((0u8..3, 0u64..1000, 0u64..1000), 1..40),
            untimed in 0usize..3,
            window in 1usize..48,
            steps in proptest::collection::vec(1u64..100_000_000, 1..8),
        ) {
            let n = mix.len();
            let build = || mix.iter().map(|&(k, a, b)| source(k, a, b)).collect::<Vec<_>>();
            let timed = n.saturating_sub(untimed).max(1);
            let mut sorted = SourceStage::new(build(), timed, window.min(n));
            let mut reference = TimerStage::new(build(), timed);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut horizon = Time::ZERO;
            for step in steps {
                horizon = Time(horizon.0 + step);
                loop {
                    got.clear();
                    want.clear();
                    let got_mark = sorted.fill(horizon, &mut got);
                    let want_mark = reference.fill(horizon, &mut want);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(got_mark, want_mark);
                    if want_mark >= horizon {
                        break;
                    }
                }
            }
        }
    }
}
