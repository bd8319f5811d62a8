//! Self-tests of the benchmark: the percentile rule, `error_rate`
//! accounting, the `BENCHMARK.json` catalogue, and that tracing and the
//! executor worker count leave simulated results unchanged.

use nvdimmc_core::PAGE_BYTES;
use nvdimmc_ddr::RefreshMode;
use nvdimmc_perfbench::fio::{run_rep, Fill, FioSpec};
use nvdimmc_perfbench::schema::{parse_json, validate, Json};
use nvdimmc_perfbench::stats::{percentile, samples_beyond, MIN_BEYOND};
use nvdimmc_perfbench::{crash, result_line, Outcome, Tally, END_TO_END, PER_LAYER};
use nvdimmc_sim::{Histogram, SimDuration};
use nvdimmc_workloads::{CrashSweep, RwMode};

fn histogram(n: u64) -> Histogram {
    let mut h = Histogram::new();
    for i in 0..n {
        h.record(SimDuration::from_ns(1000 + i));
    }
    h
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(samples_beyond(20, 50.0), 10);
    assert_eq!(samples_beyond(19, 50.0), 9);
    assert_eq!(samples_beyond(0, 50.0), 0);
    assert_eq!(samples_beyond(1, 0.0), 0);

    let p99 = percentile(&histogram(1000), 99.0).expect("1000 samples give a p99");
    assert_eq!((p99.samples, p99.beyond), (1000, 10));
    assert!(p99.us > 1.9 && p99.us <= 1.999, "p99 {} us", p99.us);
    assert_eq!(percentile(&histogram(999), 99.0), None);
    assert_eq!(percentile(&histogram(19), 50.0), None);
    let p50 = percentile(&histogram(20), 50.0).expect("20 samples give a p50");
    assert_eq!((p50.samples, p50.beyond), (20, 10));
}

#[test]
fn error_rate_counts_every_op_of_a_failed_run() {
    let mut t = Tally::default();
    assert_eq!(t.error_rate(), 0.0);
    t.record(100, &Ok::<(), ()>(()));
    t.record(50, &Err::<(), ()>(()));
    t.succeeded(30);
    t.failed(20);
    assert_eq!(
        t,
        Tally {
            attempted: 200,
            failed: 70
        }
    );
    assert!((t.error_rate() - 0.35).abs() < 1e-12);
}

#[test]
fn a_failed_check_withholds_every_number() {
    let mut out = Outcome::default();
    out.tally.succeeded(10);
    out.set("host_ops_per_s", 5.0, 3);
    out.set("setup_s", 0.5, 3);
    out.set("peak_rss_mb", 1.0, 1);
    for trace in [false, true] {
        let line = parse_json(&result_line(&out, trace)).expect("result line is JSON");
        let metrics = line.get("metrics").expect("metrics");
        let Json::Obj(pairs) = metrics else {
            panic!("metrics is not an object");
        };
        let want = if trace { PER_LAYER } else { END_TO_END };
        let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, want.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        for ((_, v), (_, unit)) in pairs.iter().zip(want) {
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(v.get("value").and_then(Json::as_num).is_some());
        }
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
    out.problem("digest mismatch");
    let line = parse_json(&result_line(&out, false)).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("metrics"), Some(&Json::Obj(Vec::new())));
    assert_eq!(line.get("attempted").and_then(Json::as_num), Some(10.0));
}

#[test]
fn benchmark_json_round_trips_and_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    validate(&doc).expect("BENCHMARK.json matches the catalogue");

    // Each edit breaks the catalogue or a bound.
    let edits = [
        ("\"bound\": 0.25", "\"bound\": 0.3"),
        ("\"host.exec.self_pct\"", "\"host.exec.self_s\""),
        ("\"unit\": \"MB\"", "\"unit\": \"MiB\""),
        ("\"model_check_ci\"", "\"model\""),
    ];
    for (from, to) in edits {
        assert!(text.contains(from), "BENCHMARK.json lacks {from}");
        let doc = parse_json(&text.replacen(from, to, 1)).expect("edited document parses");
        assert!(validate(&doc).is_err(), "accepted {from} -> {to}");
    }
}

fn tiny(fill: Fill, refresh_mode: RefreshMode, rw: RwMode) -> FioSpec {
    FioSpec {
        channels: 2,
        refresh_mode,
        cache_slots: Some(16),
        threads_per_channel: 2,
        ops_per_thread: 24,
        rw,
        span: 2 * 2 * 16 * PAGE_BYTES,
        fill,
        parallel: false,
        check_traces: true,
    }
}

#[test]
fn traced_and_untraced_runs_agree_on_a_tiny_configuration() {
    for spec in [
        tiny(
            Fill::DirtyWrites,
            RefreshMode::PerBank,
            RwMode::RandRw { read_fraction: 0.7 },
        ),
        tiny(Fill::Prefault, RefreshMode::RankLevel, RwMode::RandRead),
    ] {
        let plain = run_rep(&spec, 7, 2, false, false).expect("untraced run");
        let traced = run_rep(&spec, 7, 1, true, true).expect("traced run");
        assert_eq!(plain.sim, traced.sim, "{spec:?}");
        assert_eq!(traced.diagnostics, 0, "{spec:?}");
        assert!(traced.trace_entries.is_some_and(|n| n > 0), "{spec:?}");
        assert!(!traced.serve_read.is_zero(), "{spec:?}");
        assert!(plain.serve_read.is_zero() && plain.check.is_zero());
        let other_seed = run_rep(&spec, 8, 2, false, false).expect("untraced run");
        assert_ne!(
            plain.sim.data_digest, other_seed.sim.data_digest,
            "{spec:?}"
        );
    }
}

#[test]
fn the_crash_loop_matches_the_library_sweep() {
    let sweep = CrashSweep::small(1).with_seed(3);
    let ours = crash::sweep_seed(&sweep).expect("benchmark sweep");
    let reference = sweep.sweep().expect("library sweep");
    assert!(reference.is_clean());
    assert_eq!(
        (ours.trials, ours.per_kind, ours.digest),
        (reference.trials, reference.per_kind, reference.digest)
    );
    assert_eq!(ours.violations, 0);
    assert!(!ours.rehearse.is_zero() && !ours.trials_time.is_zero());
}
