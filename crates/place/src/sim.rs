//! The event-driven placement simulation: churn in, fragmentation out.
//!
//! One [`uparc_sim::engine::Engine`] process owns a
//! [`DynamicCatalog`] and a single ICAP's time budget. Foreground work
//! (tenant loads) always wins the port; the [`Defragmenter`] only gets
//! cycles when the port is idle and no load is queued — the "idle ICAP
//! bandwidth" budget the paper's controller leaves on the table between
//! reconfigurations. Every relocation move is wrapped in a
//! `Relocate` span, every finished pass emits a `Compact` instant, and
//! every admission rejection an `AllocFail` instant, so a trace shows
//! exactly when compaction ran and what it bought.

use std::collections::VecDeque;

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_fpga::alloc::{FitPolicy, FragStats};
use uparc_fpga::Device;
use uparc_serve::dynamic::{DynamicCatalog, PlacementError};
use uparc_serve::request::BitstreamId;
use uparc_sim::engine::{Context, Engine, Process};
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::rng::substream;
use uparc_sim::time::{Frequency, SimTime};

use crate::churn::{Arrival, ChurnSpec, LANE_PAYLOAD};
use crate::defrag::Defragmenter;

/// Configuration of one churn run.
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// The device whose frame space is being managed.
    pub device: Device,
    /// Allocation policy for tenant admission.
    pub policy: FitPolicy,
    /// Whether the background defragmenter runs on idle ICAP time.
    pub defrag: bool,
    /// Verify every relocation against a fresh
    /// [`PartialBitstream::try_build`] at the destination (byte
    /// identity). Costs a rebuild per move; benches turn it on.
    pub verify_moves: bool,
    /// ICAP streaming frequency; defaults to the family's specified
    /// frequency when `None`.
    pub icap_frequency: Option<Frequency>,
    /// Observability handle (null by default).
    pub obs: Obs,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            device: Device::xc5vsx50t(),
            policy: FitPolicy::FirstFit,
            defrag: true,
            verify_moves: false,
            icap_frequency: None,
            obs: Obs::null(),
        }
    }
}

/// What a churn run did and where it left the frame space.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Tenant arrivals offered.
    pub arrivals: u32,
    /// Loads admitted and completed.
    pub placed: u32,
    /// Arrivals shed with no window (the `AllocFail` count).
    pub rejected: u32,
    /// Of the rejections, how many were trapped-capacity cases (enough
    /// total free frames existed, but no single block fit).
    pub rejected_trapped: u32,
    /// Tenants that departed (windows freed).
    pub departed: u32,
    /// Defragmentation moves performed.
    pub moves: u32,
    /// Frames carried by those moves.
    pub moved_frames: u64,
    /// Completed compaction passes (`Compact` instants).
    pub compact_passes: u32,
    /// Moves verified byte-identical to a fresh build (0 unless
    /// [`PlacementConfig::verify_moves`]).
    pub verified_moves: u32,
    /// Verified moves that did NOT match a fresh build (must stay 0).
    pub verify_failures: u32,
    /// Catalog/allocator invariant violations observed (must stay 0).
    pub invariant_violations: u32,
    /// Live images at the end of the run.
    pub live_at_end: u32,
    /// Frames those images occupy.
    pub live_frames: u32,
    /// Fragmentation snapshot at the end of the run.
    pub final_frag: FragStats,
    /// Total time the ICAP spent streaming (loads + moves).
    pub icap_busy: SimTime,
    /// Of that, time spent on defragmentation moves alone.
    pub icap_defrag: SimTime,
    /// Simulated time at the last event.
    pub makespan: SimTime,
}

#[derive(Debug, Clone, PartialEq)]
enum PlaceEv {
    Arrive(u32),
    Depart(u32),
    IcapDone,
}

struct PlaceProcess {
    catalog: DynamicCatalog,
    device: Device,
    arrivals: Vec<Arrival>,
    seed: u64,
    freq: Frequency,
    defrag: Option<Defragmenter>,
    verify_moves: bool,
    obs: Obs,
    // ICAP occupancy: at most one transfer in flight.
    busy: bool,
    queue: VecDeque<u32>,
    // Current compaction pass (moves so far, largest-free at pass start).
    pass: Option<(u32, u32)>,
    out: ChurnOutcome,
}

/// Runs `spec` for `seed` under `config`, returning the outcome.
///
/// Fully deterministic: the same `(spec, seed, config)` triple produces
/// the same outcome, trace and metrics, byte for byte.
#[must_use]
pub fn run_churn(spec: &ChurnSpec, seed: u64, config: PlacementConfig) -> ChurnOutcome {
    let arrivals = spec.expand(seed);
    let freq = config
        .icap_frequency
        .unwrap_or_else(|| config.device.family().icap_spec_frequency());
    let process = PlaceProcess {
        catalog: DynamicCatalog::new(config.device.clone(), config.policy),
        device: config.device,
        seed,
        freq,
        defrag: config.defrag.then_some(Defragmenter),
        verify_moves: config.verify_moves,
        obs: config.obs,
        busy: false,
        queue: VecDeque::new(),
        pass: None,
        out: ChurnOutcome {
            arrivals: arrivals.len() as u32,
            placed: 0,
            rejected: 0,
            rejected_trapped: 0,
            departed: 0,
            moves: 0,
            moved_frames: 0,
            compact_passes: 0,
            verified_moves: 0,
            verify_failures: 0,
            invariant_violations: 0,
            live_at_end: 0,
            live_frames: 0,
            final_frag: FragStats {
                total_free: 0,
                largest_free: 0,
                free_blocks: 0,
                histogram: [0; 32],
            },
            icap_busy: SimTime::ZERO,
            icap_defrag: SimTime::ZERO,
            makespan: SimTime::ZERO,
        },
        arrivals,
    };

    let schedule: Vec<(SimTime, u32)> = process
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (a.at, i as u32))
        .collect();
    let mut engine: Engine<PlaceEv> = Engine::new();
    let id = engine.spawn(Box::new(process));
    for (at, i) in schedule {
        engine.schedule(at, id, PlaceEv::Arrive(i));
    }
    engine.run();

    let boxed: Box<dyn std::any::Any> = engine.despawn(id);
    let mut process = boxed
        .downcast::<PlaceProcess>()
        .expect("despawned the process we spawned");
    process.out.makespan = engine.now();
    process.out.live_at_end = process.catalog.len() as u32;
    process.out.live_frames = process
        .catalog
        .iter()
        .map(|(_, img)| img.window().end - img.window().start)
        .sum();
    process.out.final_frag = process.catalog.frag_stats();
    process.check();
    process.out.clone()
}

impl PlaceProcess {
    fn check(&mut self) {
        if let Err(violation) = self.catalog.check_invariants() {
            self.out.invariant_violations += 1;
            self.obs.count("place.invariant_violations", 1);
            debug_assert!(false, "placement invariant violated: {violation}");
        }
    }

    fn tenant_image(&self, arrival: &Arrival) -> PartialBitstream {
        let image_seed = substream(self.seed, LANE_PAYLOAD, u64::from(arrival.tenant));
        let payload = SynthProfile::dense().generate(&self.device, 0, arrival.frames, image_seed);
        PartialBitstream::build(&self.device, 0, &payload)
    }

    /// Starts the next piece of ICAP work, foreground loads first, then
    /// (when idle and enabled) one defragmentation move.
    fn pump(&mut self, ctx: &mut Context<'_, PlaceEv>) {
        while !self.busy {
            if let Some(i) = self.queue.pop_front() {
                self.admit(ctx, i);
                continue;
            }
            if !self.step_defrag(ctx) {
                break;
            }
        }
    }

    fn admit(&mut self, ctx: &mut Context<'_, PlaceEv>, index: u32) {
        let arrival = self.arrivals[index as usize].clone();
        let image = self.tenant_image(&arrival);
        let now = ctx.now();
        match self.catalog.load(BitstreamId(arrival.tenant), &image) {
            Ok(_window) => {
                let placed = self
                    .catalog
                    .get(BitstreamId(arrival.tenant))
                    .expect("just placed");
                let words = placed.bitstream().words().len() as u64;
                let dt = self.freq.time_of_cycles(words);
                let span = self.obs.begin(now, EventKind::IcapBurst { words });
                self.obs.end(now + dt, span);
                self.obs.instant(
                    now,
                    EventKind::Admission {
                        outcome: "placed",
                        request: u64::from(arrival.tenant),
                    },
                );
                self.obs.count("place.allocs", 1);
                self.out.placed += 1;
                self.out.icap_busy += dt;
                self.busy = true;
                ctx.send_in(dt, ctx.self_id(), PlaceEv::IcapDone);
                if let Some(hold) = arrival.hold {
                    ctx.send_in(dt + hold, ctx.self_id(), PlaceEv::Depart(arrival.tenant));
                }
            }
            Err(err @ PlacementError::NoCapacity { .. }) => {
                self.obs.instant(
                    now,
                    EventKind::AllocFail {
                        frames: arrival.frames,
                        largest_free: self.catalog.allocator().largest_free(),
                    },
                );
                self.obs.instant(
                    now,
                    EventKind::Admission {
                        outcome: "no_capacity",
                        request: u64::from(arrival.tenant),
                    },
                );
                self.obs.count("place.alloc_fails", 1);
                self.out.rejected += 1;
                if err.is_trapped_capacity() {
                    self.out.rejected_trapped += 1;
                    self.obs.count("place.alloc_fails_trapped", 1);
                }
            }
            Err(err) => unreachable!("churn admission can only fail on capacity: {err}"),
        }
        self.check();
    }

    /// Performs one defragmentation move if the planner finds one.
    /// Returns whether a move was started.
    fn step_defrag(&mut self, ctx: &mut Context<'_, PlaceEv>) -> bool {
        let Some(defrag) = self.defrag else {
            return false;
        };
        let now = ctx.now();
        let Some(plan) = defrag.plan(&self.catalog) else {
            // Pass complete: report what compaction recovered.
            if let Some((moves, largest_before)) = self.pass.take() {
                let largest_now = self.catalog.allocator().largest_free();
                self.obs.instant(
                    now,
                    EventKind::Compact {
                        moves,
                        recovered_frames: largest_now.saturating_sub(largest_before),
                    },
                );
                self.obs
                    .gauge("place.contiguity", self.catalog.frag_stats().contiguity());
                self.out.compact_passes += 1;
            }
            return false;
        };
        if self.pass.is_none() {
            self.pass = Some((0, self.catalog.allocator().largest_free()));
        }
        // A move streams the image twice: frame readback, then the
        // relocated write.
        let words = 2 * self
            .catalog
            .get(plan.id)
            .expect("planned image is live")
            .bitstream()
            .words()
            .len() as u64;
        let dt = self.freq.time_of_cycles(words);
        let span = self.obs.begin(
            now,
            EventKind::Relocate {
                from: plan.from.start,
                to: plan.to,
                frames: plan.frames,
            },
        );
        self.obs.end(now + dt, span);
        self.catalog
            .relocate_to(plan.id, plan.to)
            .expect("planned moves land");
        if self.verify_moves {
            let moved = self.catalog.get(plan.id).expect("still live");
            let fresh =
                PartialBitstream::try_build(&self.device, plan.to, moved.bitstream().payload())
                    .expect("fresh build at a valid window");
            if *moved.bitstream() == fresh {
                self.out.verified_moves += 1;
            } else {
                self.out.verify_failures += 1;
            }
        }
        self.obs.count("place.moves", 1);
        self.out.moves += 1;
        self.out.moved_frames += u64::from(plan.frames);
        self.out.icap_busy += dt;
        self.out.icap_defrag += dt;
        if let Some((moves, _)) = self.pass.as_mut() {
            *moves += 1;
        }
        self.busy = true;
        ctx.send_in(dt, ctx.self_id(), PlaceEv::IcapDone);
        self.check();
        true
    }
}

impl Process<PlaceEv> for PlaceProcess {
    fn handle(&mut self, ctx: &mut Context<'_, PlaceEv>, event: PlaceEv) {
        match event {
            PlaceEv::Arrive(i) => {
                self.queue.push_back(i);
                self.pump(ctx);
            }
            PlaceEv::Depart(tenant) => {
                self.catalog
                    .unload(BitstreamId(tenant))
                    .expect("departing tenants are live");
                self.obs.count("place.frees", 1);
                self.out.departed += 1;
                self.check();
                self.pump(ctx);
            }
            PlaceEv::IcapDone => {
                self.busy = false;
                self.pump(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChurnSpec {
        ChurnSpec {
            tenants: 120,
            mean_gap: SimTime::from_us(400),
            mean_hold: SimTime::from_ms(4),
            frames_min: 8,
            frames_max: 48,
            pinned_permille: 200,
        }
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let cfg = || PlacementConfig {
            verify_moves: true,
            ..PlacementConfig::default()
        };
        let a = run_churn(&spec(), 11, cfg());
        let b = run_churn(&spec(), 11, cfg());
        assert_eq!(a, b);
        assert_eq!(a.arrivals, 120);
        assert_eq!(a.placed + a.rejected, a.arrivals);
        assert_eq!(a.invariant_violations, 0);
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.verified_moves, a.moves);
        assert_eq!(a.live_at_end, a.placed - a.departed);
    }

    #[test]
    fn defrag_only_uses_idle_time_and_recovers_capacity() {
        let on = run_churn(&spec(), 3, PlacementConfig::default());
        let off = run_churn(
            &spec(),
            3,
            PlacementConfig {
                defrag: false,
                ..PlacementConfig::default()
            },
        );
        assert_eq!(off.moves, 0);
        assert_eq!(off.icap_defrag, SimTime::ZERO);
        assert!(on.moves > 0, "churn at this rate must trigger compaction");
        assert!(on.compact_passes > 0);
        // Compaction never loses capacity and concentrates it.
        assert!(on.final_frag.largest_free >= off.final_frag.largest_free);
        assert!(on.final_frag.free_blocks <= off.final_frag.free_blocks);
        // Identical tenant stream either way (admission may differ only
        // through fragmentation, which defrag can only improve).
        assert!(on.rejected <= off.rejected);
    }

    #[test]
    fn trace_carries_relocation_spans() {
        use std::sync::Arc;
        use uparc_sim::obs::TraceRecorder;
        let rec = Arc::new(TraceRecorder::new());
        let out = run_churn(
            &spec(),
            5,
            PlacementConfig {
                obs: Obs::recording(Arc::clone(&rec)),
                ..PlacementConfig::default()
            },
        );
        assert!(out.moves > 0);
        let trace = rec.chrome_trace(None);
        assert!(trace.contains("\"name\":\"Relocate\""), "span missing");
        assert!(trace.contains("\"cat\":\"place\""));
        assert!(trace.contains("\"name\":\"Compact\""));
        // The export stays parseable with the in-repo parser.
        uparc_sim::obs::json::parse(&trace).expect("valid trace JSON");
    }
}
