//! Per-chip simulation.
//!
//! Each chip serves its routed queue FIFO on one reconfigurable region:
//! pick the fastest operating point the chip's epoch cap admits (from
//! the calibrated [`PlanTables`]), run the host-side staging work for
//! real — a miss in the chip's working set (an `Lru`) decompresses the
//! staged payload with the actual codec and folds the fresh image once,
//! a hit reuses the fold kept for it — and advance simulated time by the
//! *measured* dispatch latency. Chips share nothing, so the
//! fleet can fan them out across the worker pool and still merge
//! byte-identical results in chip order.
//!
//! Under a chaos campaign the loop grows failure paths: dispatches that
//! start inside an ICAP-wedge or elevated-SEU window (or draw an ambient
//! staged-image flip) abandon the calibrated table and run a *real*
//! cycle-accurate [`UParc`](uparc_core::uparc::UParc) dispatch through
//! the `RecoveryPolicy` ladder — the measured detour (the post-success
//! verification scan, watchdog waits, restages, retries) is what the
//! request pays; a brownout slashes the
//! chip's cap for its window (waiting it out if even the slowest point
//! no longer fits); and a permanent chip loss clips the in-flight
//! transfer, spills the rest of the queue back to the fleet as *orphans*
//! and stops the clock. Every request leaves the loop in exactly one
//! ledger: `served`, `failed`, or `orphans`.

use uparc_core::recovery::RecoveryPolicy;
use uparc_serve::catalog::Catalog;
use uparc_sim::fault::{FaultInjector, FaultKind, MAX_STALL_CYCLES};
use uparc_sim::power::calib;
use uparc_sim::stats::LogHistogram;
use uparc_sim::time::SimTime;

use crate::budget::CapSchedule;
use crate::chaos::ChaosPlan;
use crate::lru::Lru;
use crate::plan::PlanTables;
use crate::workload::FleetRequest;

/// One routed request together with its failover state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The underlying request (its `arrival` stays the original one, so
    /// failover latency includes the whole detour).
    pub req: FleetRequest,
    /// Earliest dispatch time on the current chip: the arrival for a
    /// first placement, death time plus backoff for a failover.
    pub ready: SimTime,
    /// How many times chip deaths have orphaned this request.
    pub retries: u32,
}

impl From<FleetRequest> for QueuedRequest {
    fn from(req: FleetRequest) -> Self {
        QueuedRequest {
            req,
            ready: req.arrival,
            retries: 0,
        }
    }
}

/// One chip's routed work.
#[derive(Debug, Clone)]
pub struct ChipInput {
    /// Chip index in the fleet.
    pub chip: usize,
    /// Routed requests in dispatch order.
    pub requests: Vec<QueuedRequest>,
}

/// Shared read-only context of one chip simulation.
pub struct ChipEnv<'a> {
    /// The bitstream catalog.
    pub catalog: &'a Catalog,
    /// Calibrated operating-point tables.
    pub tables: &'a PlanTables,
    /// Per-chip epoch cap schedule.
    pub schedule: &'a CapSchedule,
    /// Byte budget of the chip's decompressed-image cache.
    pub cache_budget: usize,
    /// The expanded chaos campaign.
    pub plan: &'a ChaosPlan,
    /// Recovery ladder for faulted dispatches.
    pub recovery: &'a RecoveryPolicy,
}

/// Everything one chip's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipOutcome {
    /// Chip index.
    pub chip: usize,
    /// Requests served.
    pub completed: u64,
    /// Served requests that had previously been orphaned by a death.
    pub completed_failover: u64,
    /// Decompressed-image cache hits.
    pub hits: u64,
    /// Decompressed-image cache misses (real decompressions run).
    pub misses: u64,
    /// Images evicted from the chip cache.
    pub evictions: u64,
    /// Bytes actually decompressed on misses.
    pub decompressed_bytes: u64,
    /// 32-bit words transferred through the ICAP across all dispatches.
    pub words: u64,
    /// Above-idle energy across all dispatches, µJ.
    pub energy_uj: f64,
    /// When the last dispatch finished.
    pub finish: SimTime,
    /// Arrival-to-finish latency of steady (fault-free, never-orphaned)
    /// completions, µs.
    pub latency_us: LogHistogram,
    /// Arrival-to-finish latency of degraded completions — faulted
    /// dispatches and failovers — µs. Kept apart so recovery detours
    /// have their own tail instead of hiding inside the steady p99.
    pub degraded_latency_us: LogHistogram,
    /// Dispatch count per grid frequency index.
    pub freq_mix: Vec<u64>,
    /// `(start_fs, end_fs, above_idle_draw_mw)` per transfer segment, for
    /// the fleet's independent rack-cap verification sweep.
    pub intervals: Vec<(u64, u64, f64)>,
    /// XOR of every served image's fold. The fold of an image's bytes is
    /// computed once per decode and kept in the chip's working set, so it
    /// checks every decode the chip runs (and byte-identity across worker
    /// counts); a hit reuses the kept fold.
    pub checksum: u64,
    /// Stream indices of requests served to completion, ascending.
    pub served: Vec<u64>,
    /// Stream indices whose dispatch failed terminally after recovery.
    pub failed: Vec<u64>,
    /// Requests the chip's death spilled back to the fleet, in queue
    /// order, `ready` advanced to the death instant.
    pub orphans: Vec<QueuedRequest>,
    /// Dispatches that hit at least one injected fault.
    pub faulted: u64,
    /// Faulted dispatches the recovery ladder completed anyway.
    pub healed: u64,
    /// Individual faults applied across all recovery dispatches.
    pub faults_applied: u64,
    /// Extra latency the recovery ladder added beyond clean dispatches.
    pub recovery_extra_time: SimTime,
    /// Extra energy the recovery ladder drew, µJ.
    pub recovery_extra_energy_uj: f64,
}

/// The image fold behind [`ChipOutcome::checksum`]: 64-bit FNV-1a over
/// `image`, eight bytes mixed per multiply and the ragged tail byte by
/// byte.
fn fold_image(image: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325;
    let mut lanes = image.chunks_exact(8);
    for lane in &mut lanes {
        h ^= u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in lanes.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Runs one chip's queue to completion (or to the chip's death).
///
/// # Panics
///
/// Panics if a request references an uncalibrated bitstream or the cap
/// schedule cannot fund the floor outside a brownout window (the budget
/// layer guarantees it can).
#[must_use]
pub fn simulate_chip(input: &ChipInput, env: &ChipEnv<'_>) -> ChipOutcome {
    let catalog = env.catalog;
    let tables = env.tables;
    let chaos = env.plan.chip(input.chip);
    let codec = catalog.algorithm().codec();
    let mut working_set = Lru::<u64>::new(env.cache_budget);
    let mut out = ChipOutcome {
        chip: input.chip,
        completed: 0,
        completed_failover: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
        decompressed_bytes: 0,
        words: 0,
        energy_uj: 0.0,
        finish: SimTime::ZERO,
        latency_us: LogHistogram::new(),
        degraded_latency_us: LogHistogram::new(),
        freq_mix: vec![0; tables.grid().len()],
        intervals: Vec::with_capacity(input.requests.len()),
        checksum: 0,
        served: Vec::new(),
        failed: Vec::new(),
        orphans: Vec::new(),
        faulted: 0,
        healed: 0,
        faults_applied: 0,
        recovery_extra_time: SimTime::ZERO,
        recovery_extra_energy_uj: 0.0,
    };
    let loss_fs = chaos.loss_at.map(SimTime::as_fs);
    let mut clock = SimTime::ZERO;
    for q in &input.requests {
        let req = &q.req;
        let facts = tables.facts(req.bitstream);
        let mut start = clock.max(q.ready).max(req.arrival);
        // A chip dead before the dispatch starts spills the request back
        // to the fleet untouched.
        if let Some(loss) = loss_fs {
            if start.as_fs() >= loss {
                out.orphans.push(QueuedRequest {
                    req: *req,
                    ready: q.ready.max(SimTime::from_fs(loss)),
                    retries: q.retries,
                });
                continue;
            }
        }
        // Which faults does this dispatch draw?
        let wedged = chaos.wedged_at(start);
        let seu = chaos.seu_at(start);
        let ambient = env.plan.ambient_fault_ppm() > 0
            && env.plan.request_draw(input.chip, req.index, 100) % 1_000_000
                < u64::from(env.plan.ambient_fault_ppm());
        let faulted = wedged || seu || ambient;
        // Plan under the tightest cap anywhere in the conservative
        // window [start, start + slowest] — widened past the watchdog
        // and a retry when the dispatch will wedge, so the recovery
        // detour too is planned under the tightest cap it can cross.
        let slowest = tables.slowest_service(facts);
        let mut window = slowest;
        if faulted {
            // Up to max_attempts re-dispatches plus one watchdog wait.
            let watchdog = env.recovery.watchdog.unwrap_or(SimTime::from_ms(1));
            window = SimTime::from_fs(slowest.as_fs() * 4) + watchdog;
        }
        // Clip the planning window at the chip's death: the budget zeroes
        // a dead chip's epochs, and any transfer still in flight at the
        // loss instant is orphaned anyway, so caps past it are void.
        let cap_window_end = |s: SimTime| {
            let end = s.as_fs() + window.as_fs();
            loss_fs.map_or(end, |l| end.min(l))
        };
        let mut cap = env
            .schedule
            .min_cap_over(input.chip, start.as_fs(), cap_window_end(start));
        // A brownout overlapping the window slashes the above-idle
        // headroom to its factor.
        if let Some((bf, bt)) = chaos.brownout {
            if start < bt && start + window > bf {
                let slashed =
                    calib::V6_IDLE_MW + (cap - calib::V6_IDLE_MW) * env.plan.brownout_factor();
                if tables.select(facts, slashed).is_none() {
                    // Even the slowest point no longer fits: wait the
                    // brownout out and re-plan at the normal cap.
                    start = start.max(bt);
                    if let Some(loss) = loss_fs {
                        if start.as_fs() >= loss {
                            out.orphans.push(QueuedRequest {
                                req: *req,
                                ready: q.ready.max(SimTime::from_fs(loss)),
                                retries: q.retries,
                            });
                            clock = clock.max(SimTime::from_fs(loss));
                            continue;
                        }
                    }
                    cap =
                        env.schedule
                            .min_cap_over(input.chip, start.as_fs(), cap_window_end(start));
                } else {
                    cap = slashed;
                }
            }
        }
        let idx = tables
            .select(facts, cap)
            .expect("epoch caps always fund the floor");
        // Host-side staging: the real work locality routing saves.
        if facts.packed {
            let fold = match working_set.get(req.bitstream) {
                Some(&fold) => {
                    out.hits += 1;
                    fold
                }
                None => {
                    out.misses += 1;
                    let entry = catalog.entry(req.bitstream).expect("calibrated id");
                    let packed = entry.packed_bytes().expect("compressed staging");
                    let image = codec
                        .decompress(packed)
                        .expect("staged payload round-trips");
                    out.decompressed_bytes += image.len() as u64;
                    let fold = fold_image(&image);
                    working_set.insert(req.bitstream, image.len(), fold, |_| out.evictions += 1);
                    fold
                }
            };
            out.checksum ^= fold;
        }
        let (finish, failed) = if faulted {
            dispatch_faulted(
                input.chip, q, env, idx, start, wedged, seu, ambient, &mut out,
            )
        } else {
            // The calibrated fast path.
            let service = tables.service(facts, idx);
            let finish = start + service;
            let end_fs = loss_fs.map_or(finish.as_fs(), |l| finish.as_fs().min(l));
            if end_fs > start.as_fs() {
                out.intervals
                    .push((start.as_fs(), end_fs, tables.draw_above_idle_mw(facts, idx)));
            }
            if end_fs == finish.as_fs() {
                out.energy_uj += tables.energy_uj(facts, idx);
            } else {
                // Clipped by the chip's death: only the partial draw.
                out.energy_uj += tables.draw_above_idle_mw(facts, idx)
                    * SimTime::from_fs(end_fs - start.as_fs()).as_secs_f64()
                    * 1e3;
            }
            (finish, false)
        };
        // Death mid-transfer: the request did not complete anywhere.
        if let Some(loss) = loss_fs {
            if finish.as_fs() > loss {
                out.orphans.push(QueuedRequest {
                    req: *req,
                    ready: q.ready.max(SimTime::from_fs(loss)),
                    retries: q.retries,
                });
                clock = SimTime::from_fs(loss);
                out.finish = out.finish.max(clock);
                continue;
            }
        }
        if failed {
            out.failed.push(req.index);
            clock = finish;
            out.finish = out.finish.max(finish);
            continue;
        }
        out.words += facts.words;
        out.freq_mix[idx] += 1;
        let latency = finish.saturating_sub(req.arrival).as_us_f64();
        if faulted || q.retries > 0 {
            out.degraded_latency_us.observe(latency);
        } else {
            out.latency_us.observe(latency);
        }
        out.completed += 1;
        if q.retries > 0 {
            out.completed_failover += 1;
        }
        out.served.push(req.index);
        clock = finish;
        out.finish = out.finish.max(finish);
    }
    out
}

/// Runs one faulted dispatch on a real cycle-accurate controller through
/// the recovery ladder, folding the measured detour (time, energy, power
/// segments) into `out`. Returns `(finish, failed)`.
#[allow(clippy::too_many_arguments)]
fn dispatch_faulted(
    chip: usize,
    q: &QueuedRequest,
    env: &ChipEnv<'_>,
    idx: usize,
    start: SimTime,
    wedged: bool,
    seu: bool,
    ambient: bool,
    out: &mut ChipOutcome,
) -> (SimTime, bool) {
    let req = &q.req;
    let entry = env.catalog.entry(req.bitstream).expect("calibrated id");
    let mut injector = FaultInjector::empty();
    if wedged {
        // An ICAP wedge: the transfer stalls past the watchdog, forcing
        // a timeout and a ladder retry.
        injector.schedule(
            SimTime::ZERO,
            FaultKind::TransferStall {
                cycles: MAX_STALL_CYCLES,
            },
        );
    }
    if seu {
        let frames = entry.bitstream().frame_count().max(1) as u64;
        for k in 0..env.plan.seu_faults_per_request() {
            let r = env.plan.request_draw(chip, req.index, u64::from(k));
            injector.schedule(
                SimTime::ZERO,
                FaultKind::ConfigSeu {
                    frame: entry.bitstream().far() + (r % frames) as u32,
                    word: (r >> 32) as u32,
                    bit: ((r >> 58) & 31) as u8,
                },
            );
        }
    }
    if ambient {
        let r = env.plan.request_draw(chip, req.index, 101);
        injector.schedule(
            SimTime::ZERO,
            FaultKind::StagedFlip {
                word: (r % entry.staged_words().max(1) as u64) as u32,
                bit: ((r >> 58) & 31) as u8,
            },
        );
    }
    // A fresh scratch controller, as PlanTables measures with. The tables
    // time a bare `reconfigure_bitstream`, but the ladder also ECC-verifies
    // the partition after success, so a fault-free dispatch here ends
    // exactly one readback scan (`frames × frame_words + 2` CLK_2 cycles)
    // after the table latency; the rest of the difference is the recovery
    // detour.
    let mut scratch = env.catalog.lane();
    scratch
        .set_reconfiguration_frequency(env.tables.frequency(idx))
        .expect("grid frequency is synthesizable");
    scratch.attach_fault_injector(injector);
    let result = env
        .recovery
        .reconfigure(&mut scratch, entry.bitstream(), entry.mode());
    let measured = scratch.now();
    let finish = start + measured;
    let loss_fs = env.plan.chip(chip).loss_at.map(SimTime::as_fs);
    // Fold the measured waveform into the verification intervals, clipped
    // at the chip's death if it dies mid-dispatch.
    let limit = loss_fs.map_or(measured, |l| {
        measured.min(SimTime::from_fs(l.saturating_sub(start.as_fs())))
    });
    let trace = scratch.power_trace();
    let steps = trace.steps();
    for (i, &(t0, p0)) in steps.iter().enumerate() {
        if t0 >= limit {
            break;
        }
        let t1 = steps.get(i + 1).map_or(limit, |&(t, _)| t.min(limit));
        if p0 > calib::V6_IDLE_MW && t1 > t0 {
            out.intervals.push((
                (start + t0).as_fs(),
                (start + t1).as_fs(),
                p0 - calib::V6_IDLE_MW,
            ));
        }
    }
    out.energy_uj += trace.energy_above_uj(calib::V6_IDLE_MW, SimTime::ZERO, limit);
    out.faulted += 1;
    match result {
        Ok(rep) => {
            if rep.healed() {
                out.healed += 1;
            }
            out.faults_applied += rep.faults_applied as u64;
            out.recovery_extra_time += rep.extra_time;
            out.recovery_extra_energy_uj += rep.extra_energy_uj;
            (finish, false)
        }
        Err(_) => (finish, true),
    }
}
