//! Machine-readable throughput benchmark: writes `BENCH_throughput.json`
//! at the repository root with words/sec for the ICAP cycle model (batched
//! fast path vs the per-cycle reference), each compression codec (encode
//! and decode), the end-to-end reconfiguration pipeline (raw and
//! compressed mode), the simulator event queue, and a kernel section
//! (event-loop dispatch rate on a relay ring, a sharded scenario grid, and
//! the decompressed-bitstream cache).
//!
//! Run with `cargo run --release -p uparc-bench --bin bench_throughput`;
//! pass `--smoke` for a seconds-scale CI variant (small workloads, fewer
//! repetitions — same JSON shape).

use std::time::Instant;

use uparc_bench::harness::Harness;
use uparc_bench::report::{Obj, Value};
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_compress::parallel::BlockCodec;
use uparc_compress::{Algorithm, Ratio};
use uparc_core::schedule::{run_schedule, ReconfigTask, Strategy};
use uparc_core::uparc::{Mode, UParc};
use uparc_fpga::{Device, Icap};
use uparc_sim::queue::EventQueue;
use uparc_sim::sweep;
use uparc_sim::time::{Frequency, SimTime};

/// Event-queue ops/s recorded by PR 1's `BinaryHeap` kernel on this same
/// 200k-event workload — the floor the calendar queue is measured against.
const QUEUE_BASELINE_OPS_PER_SEC: f64 = 12_792_958.0;

/// Runs a token ring of `relays` relays seeded with `tokens` staggered
/// tokens of `hops` hops each, as one event loop over one queue, and
/// returns the number of events handled. An event is `(relay, hops)`:
/// the relay forwards the token to its successor with a data-dependent
/// delay, sprinkling in same-instant self-sends so delta cycles are
/// exercised.
fn ring_events(relays: usize, tokens: u64, hops: u64) -> u64 {
    let mut q = EventQueue::new();
    for t in 0..tokens {
        q.schedule(SimTime::from_ns(t * 13), ((t as usize * 7) % relays, hops));
    }
    let mut events = 0;
    while let Some((_, (relay, hops))) = q.pop() {
        events += 1;
        if hops > 0 {
            let delay = SimTime::from_ns(1 + (hops * 7919) % 1000);
            q.schedule_in(delay, ((relay + 1) % relays, hops - 1));
            if hops.is_multiple_of(8) {
                q.schedule_in(SimTime::ZERO, (relay, 0));
            }
        }
    }
    events
}

/// One measured throughput sample.
struct Measured {
    /// Best-of-N wall-clock seconds for one pass over the workload.
    secs: f64,
    /// Work items (words, bytes or events) moved per pass.
    items: u64,
}

impl Measured {
    fn per_sec(&self) -> f64 {
        self.items as f64 / self.secs
    }
}

/// Times `f` (which must process `items` work items) `reps` times and
/// keeps the fastest pass.
fn best_of<F: FnMut()>(reps: usize, items: u64, mut f: F) -> Measured {
    let mut secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    Measured { secs, items }
}

fn main() {
    let h = Harness::new("throughput", 4);
    let smoke = h.smoke;
    let reps = if smoke { 2 } else { 5 };
    let device = Device::xc5vsx50t();
    let profile = SynthProfile::dense();

    // ---- ICAP: batched vs per-cycle on a ~1 MB bitstream -------------
    let icap_bytes = if smoke { 64 * 1024 } else { 1024 * 1024 };
    let frames = (icap_bytes / device.family().frame_bytes()) as u32;
    let payload = profile.generate(&device, 0, frames, 13);
    let stream = PartialBitstream::build(&device, 0, &payload);
    let words = stream.words();
    let n_words = words.len() as u64;

    // One warm Icap per path, reset (untimed) between passes: the timings
    // measure parsing, not allocation, page faults or plane clearing. The
    // two paths are timed in *interleaved* passes so host interference
    // (the batched path is memory-bound and far more sensitive to it)
    // lands on both alike, and best-of keeps the quietest window.
    let mut ref_icap = Icap::new(device.clone());
    let mut fast_icap = Icap::new(device.clone());
    let mut ref_secs = f64::INFINITY;
    let mut fast_secs = f64::INFINITY;
    for _ in 0..if smoke { 3 } else { 11 } {
        ref_icap.reset();
        let t = Instant::now();
        words
            .iter()
            .try_for_each(|&w| ref_icap.write_word(w))
            .expect("per-cycle parse");
        ref_secs = ref_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(ref_icap.frames_committed(), u64::from(frames));

        fast_icap.reset();
        let t = Instant::now();
        fast_icap.write_words(words).expect("batched parse");
        fast_secs = fast_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(fast_icap.frames_committed(), u64::from(frames));
    }

    // ---- Observability overhead on the batched hot path --------------
    // A second pair of ports parses the same stream: one with the default
    // disabled handle (`Obs::null`, no recorder), one with a *recording*
    // observer (which does strictly more work, so this delta upper-bounds
    // the disabled handle's cost, gated at <= 2%). Wall-clock deltas between
    // near-identical memory-bound passes are noise-bound on a shared
    // host — even best-of floors drift by several percent — so each
    // sample is the obs/null ratio of two *adjacent* passes (a ~ms window
    // sees the same interference), order alternates to cancel position
    // bias, and the median ratio over all pairs discards the outliers.
    let mut null_icap = Icap::new(device.clone());
    let mut obs_icap = Icap::new(device.clone());
    let obs_recorder = std::sync::Arc::new(uparc_sim::obs::TraceRecorder::new());
    let obs_handle = uparc_sim::obs::Obs::recording(std::sync::Arc::clone(&obs_recorder));
    obs_icap.set_observer(obs_handle.clone());
    let overhead_passes = if smoke { 40 } else { 200 };
    let time_pass = |icap: &mut Icap| {
        icap.reset();
        let t = Instant::now();
        icap.write_words(words).expect("overhead parse");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(icap.frames_committed(), u64::from(frames));
        secs
    };
    let mut ratios = Vec::with_capacity(overhead_passes);
    let mut obs_best = f64::INFINITY;
    for i in 0..overhead_passes {
        let (null_pass, obs_pass) = if i % 2 == 0 {
            let n = time_pass(&mut null_icap);
            let o = time_pass(&mut obs_icap);
            (n, o)
        } else {
            let o = time_pass(&mut obs_icap);
            let n = time_pass(&mut null_icap);
            (n, o)
        };
        obs_best = obs_best.min(obs_pass);
        ratios.push(obs_pass / null_pass);
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    // The observed port really counted: one burst per pass, every word.
    let obs_counters = obs_handle.metrics().snapshot().counters;
    assert_eq!(
        obs_counters.get("icap.bursts"),
        Some(&(overhead_passes as u64))
    );
    assert_eq!(
        obs_counters.get("icap.words"),
        Some(&(n_words * overhead_passes as u64))
    );
    let per_cycle = Measured {
        secs: ref_secs,
        items: n_words,
    };
    let batched = Measured {
        secs: fast_secs,
        items: n_words,
    };
    let speedup = batched.per_sec() / per_cycle.per_sec();
    // Relative cost of observing the batched path; the disabled handle
    // (the default) does strictly less work than the recording observer
    // timed here, so this bounds its overhead too. The raw delta goes negative
    // when the cost is lost in noise; the reported overhead clamps at
    // zero (an observer cannot make the port faster), with the raw value
    // kept alongside for noise diagnostics.
    let obs_overhead_raw = median_ratio - 1.0;
    let obs_overhead = obs_overhead_raw.max(0.0);
    println!(
        "icap: {} words; per-cycle {:.1} Mwords/s, batched {:.1} Mwords/s ({speedup:.1}x), \
         obs overhead {:.2}%",
        n_words,
        per_cycle.per_sec() / 1e6,
        batched.per_sec() / 1e6,
        obs_overhead * 100.0,
    );

    // ---- Codecs: encode + decode on a dense partial bitstream --------
    let codec_bytes = if smoke { 16 * 1024 } else { 256 * 1024 };
    let codec_frames = (codec_bytes / device.family().frame_bytes()) as u32;
    let codec_payload = profile.generate(&device, 0, codec_frames, 17);
    let raw = PartialBitstream::build(&device, 0, &codec_payload).to_bytes();

    let mut codec_rows = Vec::new();
    for alg in Algorithm::ALL {
        let codec = alg.codec();
        let packed = codec.compress(&raw);
        assert_eq!(codec.decompress(&packed).expect("round trip"), raw, "{alg}");
        let enc = best_of(reps, raw.len() as u64, || {
            std::hint::black_box(codec.compress(&raw));
        });
        let dec = best_of(reps, raw.len() as u64, || {
            std::hint::black_box(codec.decompress(&packed).expect("decompress"));
        });
        let saved = Ratio::new(raw.len(), packed.len()).percent_saved();
        println!(
            "codec {alg}: encode {:.1} MB/s, decode {:.1} MB/s, {saved:.1}% saved",
            enc.per_sec() / 1e6,
            dec.per_sec() / 1e6,
        );
        codec_rows.push((alg.to_string(), enc, dec, saved));
    }

    // ---- Block-parallel encode: BlockCodec across worker counts ------
    // The framed block codec encodes independent blocks on a worker pool;
    // the frame bytes must be identical at every worker count (the frame
    // layout is position-deterministic), so only the wall clock may move.
    // The ~1 MB ICAP corpus gives the pool enough 64 KB blocks to spread.
    let block_corpus = stream.to_bytes();
    let block_codec = BlockCodec::new(Algorithm::XMatchPro);
    let mut parallel_rows = Vec::new();
    let mut first_frame: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 8] {
        sweep::pin_workers(workers);
        let frame = block_codec.compress(&block_corpus);
        match &first_frame {
            None => {
                assert_eq!(
                    block_codec.decompress(&frame).expect("block round trip"),
                    block_corpus,
                    "block frame must restore the input"
                );
                first_frame = Some(frame);
            }
            Some(first) => {
                assert_eq!(first, &frame, "worker count changed the frame bytes");
            }
        }
        let enc = best_of(reps, block_corpus.len() as u64, || {
            std::hint::black_box(block_codec.compress(&block_corpus));
        });
        println!(
            "parallel encode x{workers}: {:.1} MB/s",
            enc.per_sec() / 1e6
        );
        parallel_rows.push((workers, enc));
    }
    sweep::unpin_workers();
    let block_frame_bytes = first_frame.expect("one worker count ran").len();

    // ---- End-to-end pipeline: preload + reconfigure (raw mode) -------
    let e2e_bytes = if smoke { 64 * 1024 } else { 247 * 1024 };
    let e2e_frames = (e2e_bytes / device.family().frame_bytes()) as u32;
    let e2e_payload = profile.generate(&device, 0, e2e_frames, 19);
    let e2e_bs = PartialBitstream::build(&device, 0, &e2e_payload);
    let e2e_words = e2e_bs.words().len() as u64;
    let pipeline = best_of(reps, e2e_words, || {
        let mut sys = UParc::builder(device.clone()).build().expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .expect("retune");
        let r = sys
            .reconfigure_bitstream(&e2e_bs, Mode::Raw)
            .expect("reconfigure");
        assert!(r.efficiency() > 0.5);
    });
    println!(
        "pipeline: {} words end-to-end at {:.1} Mwords/s (host wall clock)",
        e2e_words,
        pipeline.per_sec() / 1e6
    );

    // Compressed-mode end-to-end figure: same bitstream through the
    // decompressor datapath (CLK_2 capped at 255 MHz in this mode). A
    // fresh system per pass keeps the decompression cache cold, so this
    // tracks the full staging + decode path.
    let pipeline_compressed = best_of(reps, e2e_words, || {
        let mut sys = UParc::builder(device.clone()).build().expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .expect("retune");
        let r = sys
            .reconfigure_bitstream(&e2e_bs, Mode::Compressed)
            .expect("reconfigure");
        assert!(r.compressed);
    });
    println!(
        "pipeline (compressed): {:.1} Mwords/s (host wall clock)",
        pipeline_compressed.per_sec() / 1e6
    );

    // Steady-state compressed transfer: what a controller that already
    // holds a staged image pays per reconfiguration. Build, retune and
    // preload happen untimed; the decompression cache is cleared before
    // every timed pass, so each one runs the full cold path — one decode
    // of the BRAM contents, the ICAP writes of the image, and the
    // pipeline timing (answered in closed form at these clocks). The
    // JSON key keeps its `streaming` name.
    let mut streaming_secs = f64::INFINITY;
    for _ in 0..if smoke { 3 } else { 9 } {
        let mut sys = UParc::builder(device.clone()).build().expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .expect("retune");
        sys.preload(&e2e_bs, Mode::Compressed).expect("preload");
        sys.clear_decomp_cache();
        let t = Instant::now();
        let r = sys.reconfigure().expect("reconfigure");
        streaming_secs = streaming_secs.min(t.elapsed().as_secs_f64());
        assert!(r.compressed);
    }
    let streaming = Measured {
        secs: streaming_secs,
        items: e2e_words,
    };
    println!(
        "pipeline (streaming transfer): {:.1} Mwords/s (host wall clock)",
        streaming.per_sec() / 1e6
    );

    // ---- Event queue: schedule + drain micro-benchmark ---------------
    let events = if smoke { 20_000u64 } else { 200_000u64 };
    // One op = one schedule or one pop; interleaved insert order stresses
    // the heap's FIFO tie-breaking. Like the ICAP section, this one takes
    // extra passes: the acceptance gate below asserts on the result, and
    // best-of over a longer window rides out host-scheduler interference.
    let queue = best_of(if smoke { 3 } else { 11 }, 2 * events, || {
        let mut q = EventQueue::new();
        for i in 0..events {
            let at = SimTime::from_ns((i * 7919) % (events * 3));
            q.schedule(at, i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0u64;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "heap order violated");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, events);
    });
    println!("event queue: {:.1} Mops/s", queue.per_sec() / 1e6);

    // ---- Kernel: event-loop dispatch rate on a token ring -------------
    let (relays, tokens, hops) = if smoke { (16, 8, 500) } else { (64, 32, 5_000) };
    // One untimed run pins the deterministic event count.
    let ring_count = ring_events(relays, tokens, hops);
    let ring_m = best_of(reps, ring_count, || {
        let events = ring_events(relays, tokens, hops);
        assert_eq!(events, ring_count, "nondeterministic run");
    });
    println!(
        "relay ring: {} events over {relays} relays at {:.2} Mevents/s",
        ring_count,
        ring_m.per_sec() / 1e6
    );

    // ---- Kernel: sharded scenario grid --------------------------------
    // A grid of independent ring scenarios, decomposed into contiguous
    // shards positionally (host-independent) and dispatched in parallel.
    let grid: Vec<(usize, u64, u64)> = (0..if smoke { 8 } else { 24 })
        .map(|i| {
            (
                8 + (i % 5) * 12,
                4 + (i as u64 % 7),
                if smoke { 200 } else { 1_500 } + i as u64 * 97,
            )
        })
        .collect();
    let grid_shards = sweep::shards(&grid, 8);
    let shard_events = |cells: &&[(usize, u64, u64)]| -> u64 {
        cells
            .iter()
            .map(|&(relays, tokens, hops)| ring_events(relays, tokens, hops))
            .sum()
    };
    let grid_expected: u64 = grid_shards.iter().map(&shard_events).sum();
    let mut grid_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let per_shard = sweep::parallel_map(&grid_shards, shard_events);
        grid_secs = grid_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(
            per_shard.iter().sum::<u64>(),
            grid_expected,
            "nondeterministic grid"
        );
    }
    let scenario = Measured {
        secs: grid_secs,
        items: grid_expected,
    };
    println!(
        "scenario grid: {} cells in {} shards, {} events at {:.2} Mevents/s",
        grid.len(),
        grid_shards.len(),
        grid_expected,
        scenario.per_sec() / 1e6
    );

    // ---- Kernel: decompressed-bitstream cache -------------------------
    // The schedule-test workload: a 3-module working set swapped over
    // several rounds in compressed mode, with and without the cache.
    let cache_frames = if smoke { 150 } else { 400 };
    let cache_rounds = if smoke { 2 } else { 4 };
    let cache_tasks: Vec<ReconfigTask> = {
        let mut list = Vec::new();
        for _round in 0..cache_rounds {
            for (name, seed) in [("fir", 23u64), ("fft", 29), ("viterbi", 31)] {
                let payload = profile.generate(&device, 0, cache_frames, seed);
                let bs = PartialBitstream::build(&device, 0, &payload);
                list.push(ReconfigTask::new(
                    name,
                    bs,
                    Mode::Compressed,
                    SimTime::from_us(500),
                ));
            }
        }
        list
    };
    let cache_system = |cache_bytes: usize| {
        let mut sys = UParc::builder(device.clone())
            .decompressed_cache_bytes(cache_bytes)
            .build()
            .expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .expect("retune");
        sys
    };
    let mut cache_stats = None;
    let cached = best_of(reps, cache_tasks.len() as u64, || {
        let mut sys = cache_system(32 * 1024 * 1024);
        let report = run_schedule(&mut sys, &cache_tasks, Strategy::OnDemand).expect("schedule");
        cache_stats = Some((report.cache, report.total_downtime));
    });
    let (cache_run, cached_downtime) = cache_stats.expect("at least one pass");
    let uncached = best_of(reps, cache_tasks.len() as u64, || {
        let mut sys = cache_system(0);
        let report = run_schedule(&mut sys, &cache_tasks, Strategy::OnDemand).expect("schedule");
        assert_eq!(
            report.total_downtime, cached_downtime,
            "cache changed simulated results"
        );
    });
    let cache_speedup = uncached.secs / cached.secs;
    println!(
        "decomp cache: {} swaps, hit rate {:.2}, host speedup {cache_speedup:.2}x",
        cache_tasks.len(),
        cache_run.hit_rate()
    );

    // ---- JSON report --------------------------------------------------
    let queue_speedup = queue.per_sec() / QUEUE_BASELINE_OPS_PER_SEC;
    let report = h
        .report()
        .field(
            "icap",
            Obj::new()
                .field("stream_words", n_words)
                .field(
                    "per_cycle_words_per_sec",
                    Value::fixed(per_cycle.per_sec(), 0),
                )
                .field("batched_words_per_sec", Value::fixed(batched.per_sec(), 0))
                .field("batched_speedup", Value::fixed(speedup, 2))
                .field(
                    "observed_words_per_sec",
                    Value::fixed(n_words as f64 / obs_best, 0),
                )
                .field("obs_overhead", Value::fixed(obs_overhead, 4))
                .field("obs_overhead_raw", Value::fixed(obs_overhead_raw, 4)),
        )
        .field(
            "codecs",
            codec_rows
                .iter()
                .map(|(name, enc, dec, saved)| {
                    Obj::new()
                        .field("name", name.as_str())
                        .field("input_bytes", raw.len())
                        .field("encode_bytes_per_sec", Value::fixed(enc.per_sec(), 0))
                        .field("decode_bytes_per_sec", Value::fixed(dec.per_sec(), 0))
                        .field("percent_saved", Value::fixed(*saved, 2))
                        .into()
                })
                .collect::<Vec<Value>>(),
        )
        .field(
            "pipeline",
            Obj::new()
                .field("stream_words", e2e_words)
                .field(
                    "raw_mode_words_per_sec",
                    Value::fixed(pipeline.per_sec(), 0),
                )
                .field(
                    "compressed_mode_words_per_sec",
                    Value::fixed(pipeline_compressed.per_sec(), 0),
                )
                .field(
                    "streaming_words_per_sec",
                    Value::fixed(streaming.per_sec(), 0),
                ),
        )
        .field(
            "parallel_encode",
            Obj::new()
                .field("algorithm", "xmatchpro")
                .field("block_bytes", block_codec.block_size())
                .field("input_bytes", block_corpus.len())
                .field("frame_bytes", block_frame_bytes)
                .field("byte_identical_across_workers", true)
                .field(
                    "workers",
                    parallel_rows
                        .iter()
                        .map(|(workers, enc)| {
                            Obj::new()
                                .field("count", *workers)
                                .field("encode_bytes_per_sec", Value::fixed(enc.per_sec(), 0))
                                .into()
                        })
                        .collect::<Vec<Value>>(),
                ),
        )
        .field(
            "event_queue",
            Obj::new()
                .field("events", events)
                .field("ops_per_sec", Value::fixed(queue.per_sec(), 0))
                .field(
                    "baseline_ops_per_sec",
                    Value::fixed(QUEUE_BASELINE_OPS_PER_SEC, 0),
                )
                .field("speedup_vs_baseline", Value::fixed(queue_speedup, 2)),
        )
        .field(
            "kernel",
            Obj::new()
                // Stable report keys: `engine` is the relay ring and
                // `processes` its relay count.
                .field(
                    "engine",
                    Obj::new()
                        .field("processes", relays)
                        .field("events", ring_count)
                        .field("events_per_sec", Value::fixed(ring_m.per_sec(), 0)),
                )
                .field(
                    "scenario_grid",
                    Obj::new()
                        .field("cells", grid.len())
                        .field("shards", grid_shards.len())
                        .field("events", grid_expected)
                        .field("wall_secs", Value::fixed(scenario.secs, 6))
                        .field("events_per_sec", Value::fixed(scenario.per_sec(), 0)),
                )
                .field(
                    "cache",
                    Obj::new()
                        .field("swaps", cache_tasks.len())
                        .field("hits", cache_run.hits)
                        .field("misses", cache_run.misses)
                        .field("evictions", cache_run.evictions)
                        .field("hit_rate", Value::fixed(cache_run.hit_rate(), 4))
                        .field("cached_secs", Value::fixed(cached.secs, 6))
                        .field("uncached_secs", Value::fixed(uncached.secs, 6))
                        .field("host_speedup", Value::fixed(cache_speedup, 2)),
                ),
        );

    // Acceptance gates (full-size workloads only), checked before the
    // report is written so a failing run leaves the committed report
    // alone: the batched ICAP path must hold its 5x floor, the calendar
    // queue must be at least 3x the recorded BinaryHeap baseline on the
    // same 200k-event workload, and the streamed compressed transfer must
    // hold its 38 Mwords/s floor (>= 3x the v3 compressed-pipeline figure).
    if !smoke {
        assert!(
            speedup >= 5.0,
            "batched ICAP speedup {speedup:.2}x is below the 5x floor"
        );
        assert!(
            obs_overhead <= 0.02,
            "observing the batched ICAP path costs {:.2}% (> 2% budget); \
             the disabled default handle must stay cheaper still",
            obs_overhead * 100.0
        );
        assert!(
            queue_speedup >= 3.0,
            "event queue at {:.0} ops/s is only {queue_speedup:.2}x the \
             {QUEUE_BASELINE_OPS_PER_SEC:.0} ops/s baseline (need 3x)",
            queue.per_sec()
        );
        assert!(
            streaming.per_sec() >= 38e6,
            "streamed compressed transfer at {:.1} Mwords/s is below the \
             38 Mwords/s floor",
            streaming.per_sec() / 1e6
        );
    }

    // The v4 fields must exist in every variant, smoke included.
    h.write(
        &report.render(),
        &[
            "\"streaming_words_per_sec\"",
            "\"parallel_encode\"",
            "\"obs_overhead_raw\"",
        ],
    );
}
