//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_sweep_10k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up several times,
//! measures work units for at least `--seconds`, checks the outputs
//! against from-scratch oracles outside the timed region, and prints
//! one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable summary, the run metadata and any
//! failed check go to standard error; a run record (and, when traced,
//! every span) is written under `perfbench/out/`.
//! `--workload all` runs every workload in a child process of its own
//! and prints their summaries.

mod cold;
mod rollout;
mod service;
mod trace;
mod util;
mod whatif;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use trace::{NameStats, Tracer};
use util::{median, Meta};

/// End-to-end metrics: reported on every workload by every untraced
/// run. (`ops_failed_frac` travels as the result's `failed` over
/// `attempted`.)
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported on every workload by every traced run
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dctopo.build_clos_s", "s"),
    ("dctopo.metadata_s", "s"),
    ("bgpsim.simulate_s", "s"),
    ("bgpsim.relaxations", "count"),
    ("bgpsim.rounds", "count"),
    ("bgpsim.fib_entries", "count"),
    ("bgpsim.converge_s", "s"),
    ("bgpsim.restart.resimulate_us", "us"),
    ("bgpsim.splice_us", "us"),
    ("bgpsim.restart.patched", "count"),
    ("bgpsim.restart.repropagated", "count"),
    ("bgpsim.restart.patch_ratio", "ratio"),
    ("bgpsim.restart.devices_changed", "count"),
    ("contracts.generate_s", "s"),
    ("contracts.count", "count"),
    ("contracts.resident_mb", "MB"),
    ("runner.run_s", "s"),
    ("runner.overhead_s", "s"),
    ("engine.validate_device_s", "s"),
    ("engine.validate_device_p50_us", "us"),
    ("engine.validate_device_p99_us", "us"),
    ("engine.validate_delta_us", "us"),
    ("engine.violations", "count"),
    ("engine.dirty_devices", "count"),
    ("whatif.build_s", "s"),
    ("whatif.sweep_s", "s"),
    ("whatif.scenarios_per_s", "1/s"),
    ("whatif.check_scenario_us", "us"),
    ("whatif.scenarios", "count"),
    ("whatif.devices_revalidated", "count"),
    ("whatif.verdicts_reused", "count"),
    ("whatif.memo_hit_ratio", "ratio"),
    ("whatif.rss_growth_mb", "MB"),
    ("rollout.build_s", "s"),
    ("rollout.plan_s", "s"),
    ("rollout.states", "count"),
    ("rollout.anchors", "count"),
    ("rollout.devices_revalidated", "count"),
    ("rollout.verdicts_reused", "count"),
    ("rollout.memo_hit_ratio", "ratio"),
    ("rollout.dead_prefix_hits", "count"),
    ("rollout.backtracks", "count"),
    ("rollout.state_reports_anchor_ms", "ms"),
    ("rollout.state_reports_restart_ms", "ms"),
    ("service.build_s", "s"),
    ("service.cold_pull_s", "s"),
    ("service.capacity_eps", "1/s"),
    ("service.notify_p50_ms", "ms"),
    ("service.notify_p99_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.post_pull_p50_ms", "ms"),
    ("service.generator_late_p99_ms", "ms"),
    ("service.backlog_growth", "count"),
    ("service.queue_depth_max", "count"),
    ("service.backpressure_total", "count"),
    ("pipeline.mode_full", "count"),
    ("pipeline.mode_incremental", "count"),
    ("pipeline.mode_cache_hit", "count"),
    ("pipeline.validate_notification_us", "us"),
    ("netprim.to_wire_us", "us"),
    ("netprim.from_wire_us", "us"),
    ("netprim.fib_delta_us", "us"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: &[&str] = &[
    "cold_sweep_10k",
    "whatif_k2",
    "rollout_migrate",
    "service_churn",
];

/// What a workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    warmed: std::cell::Cell<bool>,
}

impl Ctx {
    /// Run measured work units until `seconds` have passed, and at
    /// least `min` of them. `unit` does one unit and returns its
    /// measured seconds and whatever the run keeps from it; the
    /// previous unit's keep is dropped before the next unit starts,
    /// outside any span, and the last one is returned. A traced run
    /// first does one unit it does not count (the first unit of a
    /// process also pays for a cold heap), then alternates untraced
    /// and traced units, at least one of each, so the tracing overhead
    /// can be read off the two medians.
    pub fn units<R>(
        &self,
        out: &mut Outcome,
        min: usize,
        seconds: f64,
        mut unit: impl FnMut(&mut Outcome) -> (f64, R),
    ) -> R {
        let min = if self.traced { min.max(2) } else { min.max(1) };
        let mut last = None;
        if self.traced && !self.warmed.replace(true) {
            self.tracer.set_on(false);
            let mut discard = Outcome::default();
            last = Some(unit(&mut discard).1);
            out.attempted += discard.attempted;
            out.failed += discard.failed;
        }
        let start = std::time::Instant::now();
        let mut i = 0usize;
        while i < min || start.elapsed().as_secs_f64() < seconds {
            drop(last.take());
            let traced = self.traced && i % 2 == 1;
            self.tracer.set_on(traced);
            let (dt, keep) = self.tracer.span("bench.work", || unit(out));
            self.tracer.set_on(false);
            if traced {
                out.traced_work_s.push(dt);
            } else {
                out.work_s.push(dt);
            }
            last = Some(keep);
            i += 1;
        }
        self.tracer.set_on(self.traced);
        last.expect("at least one work unit")
    }

    /// Set up `n` times, each in a `bench.setup` span, recording every
    /// set-up time; keeps the last result (earlier ones are dropped
    /// before the next set-up starts).
    pub fn setups<T>(&self, out: &mut Outcome, n: usize, mut setup: impl FnMut() -> T) -> T {
        let mut built = None;
        for _ in 0..n {
            drop(built.take());
            let t0 = std::time::Instant::now();
            built = Some(self.tracer.span("bench.setup", &mut setup));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        built.expect("at least one set-up")
    }

    /// Run `f` with the recorder paused (oracle checks are not part of
    /// the measured work).
    pub fn untraced<R>(&self, f: impl FnOnce() -> R) -> R {
        let was = self.tracer.on();
        self.tracer.set_on(false);
        let out = f();
        self.tracer.set_on(was);
        out
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub work_s: Vec<f64>,
    pub traced_work_s: Vec<f64>,
    pub latency_ms: Vec<f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Deterministic work counters: must repeat exactly for a seed.
    pub counters: Vec<(String, u64)>,
    /// The workload's headline numbers under their own names
    /// (`cold_sweep_s`, `notify_p99_ms`, ...), printed in the summary.
    pub summary: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn fail(&mut self, msg: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {}", msg.as_ref());
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Set a per-layer metric (must be listed in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.layer.insert(name, value);
    }

    /// Record a deterministic counter and expose it as a per-layer
    /// metric of the same name.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
        self.counters.push((name.to_string(), value));
    }

    /// Compare the counters of two work units that did identical work;
    /// any difference is a failed check.
    pub fn same_counters(&mut self, what: &str, a: &[(&str, u64)], b: &[(&str, u64)]) {
        self.check(a == b, || {
            format!("{what}: work counters differ between identical units: {a:?} vs {b:?}")
        });
    }

    /// A recorded counter's value (0 when absent).
    pub fn count(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    pub fn summary(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.summary.push((name, value, unit));
    }
}

/// Per-name span statistics of the traced run.
pub fn span_stats(ctx: &Ctx, name: &str) -> NameStats {
    ctx.tracer.by_name().remove(name).unwrap_or_default()
}

/// Median duration of the spans named `name`, in seconds.
pub fn span_median_s(ctx: &Ctx, name: &str) -> f64 {
    median(&span_stats(ctx, name).durations_s)
}

/// Mean duration of the spans named `name`, in seconds.
pub fn span_mean_s(ctx: &Ctx, name: &str) -> f64 {
    span_stats(ctx, name).mean_s()
}

/// The `engine.validate_device` spans: their total and p50/p99. Returns
/// the total, in seconds.
pub fn set_validate_device(ctx: &Ctx, out: &mut Outcome) -> f64 {
    let device = span_stats(ctx, "engine.validate_device");
    out.set("engine.validate_device_s", device.total_s);
    out.set(
        "engine.validate_device_p50_us",
        util::quantile(&device.durations_s, 0.5) * 1e6,
    );
    out.set(
        "engine.validate_device_p99_us",
        util::quantile(&device.durations_s, 0.99) * 1e6,
    );
    device.total_s
}

/// `part` as a share of `part + rest` (0 when both are 0).
pub fn share(part: f64, rest: f64) -> f64 {
    part / (part + rest).max(1.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The declared metric names must match `BENCHMARK.json` exactly.
fn check_declared() -> Result<(), String> {
    let path = util::checkout_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let declared: Vec<&str> = text
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1))
        .collect();
    let ours: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .collect();
    if declared != ours {
        return Err(format!(
            "BENCHMARK.json names differ from the benchmark's own: {declared:?} vs {ours:?}"
        ));
    }
    Ok(())
}

/// Compare this run's counters with an earlier run of the same code,
/// seed and run length, or record them for later runs. A difference is a failed
/// check: the counters are meant to be exact.
fn counter_ledger(args: &Args, meta: &Meta, out: &mut Outcome) {
    let mut text = String::new();
    for (k, v) in &out.counters {
        let _ = writeln!(text, "{k} {v}");
    }
    let path = util::out_dir().join(format!(
        "counters-{}-seed{}-{}s-{}.txt",
        args.workload, args.seed, args.seconds, meta.source_digest
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != text => out.fail(format!(
            "work counters differ from an earlier run of the same code and seed ({}):\nearlier:\n{earlier}now:\n{text}",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("perfbench: cannot record counters in {}: {e}", path.display());
            }
        }
    }
}

fn json_metric(s: &mut String, name: &str, value: f64, unit: &str) {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    if !s.ends_with('{') {
        s.push_str(", ");
    }
    let _ = write!(
        s,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn run_one(args: &Args) -> Result<(), String> {
    check_declared()?;
    let meta = Meta::collect();
    let (threads, shards) = if args.workload == "service_churn" {
        (1, 1)
    } else {
        (1, 0)
    };
    let meta_line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"source_digest\": \"{}\", \"cores\": {}, \"cpu_model\": \"{}\", \"threads\": {threads}, \
         \"service_shards\": {shards}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meta.commit,
        meta.source_digest,
        meta.cores,
        meta.cpu_model.replace('"', "'"),
    );
    eprintln!("perfbench: meta {meta_line}");

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        warmed: std::cell::Cell::new(false),
    };
    let mut out = match args.workload.as_str() {
        "cold_sweep_10k" => cold::run(&ctx),
        "whatif_k2" => whatif::run(&ctx),
        "rollout_migrate" => rollout::run(&ctx),
        "service_churn" => service::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    counter_ledger(args, &meta, &mut out);

    let peak = util::peak_rss_mb();
    let setup_s = median(&out.setup_s);
    let work_s = median(&out.work_s);
    let latency_ms = median(&out.latency_ms);
    if args.trace {
        let overhead = median(&out.traced_work_s) - work_s;
        out.set("trace.overhead_s", overhead);
        out.set(
            "trace.overhead_frac",
            if work_s > 0.0 { overhead / work_s } else { 0.0 },
        );
        let (layers, coverage) = ctx.tracer.layer_self_times();
        out.set("trace.layer_coverage", coverage);
        out.set("trace.spans", ctx.tracer.len() as f64);
        let total: f64 = layers.values().sum();
        for (layer, s) in &layers {
            eprintln!(
                "perfbench: layer {layer:<10} self {s:>10.4} s  ({:5.1}% of traced time)",
                100.0 * s / total.max(f64::MIN_POSITIVE)
            );
        }
        let path = util::out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            ctx.tracer.len(),
            path.display()
        );
    }

    out.summary("setup_s", setup_s, "s");
    out.summary("peak_rss_mb", peak, "MB");
    out.summary(
        "ops_failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    for (name, value, unit) in &out.summary {
        eprintln!(
            "perfbench: {:<26} {value:>14.4} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    eprintln!("perfbench: set-up times (s): {:?}", out.setup_s);
    eprintln!("perfbench: untraced unit times (s): {:?}", out.work_s);
    eprintln!(
        "perfbench: {} untraced and {} traced work units, {} set-ups, {} operations attempted, {} failed",
        out.work_s.len(),
        out.traced_work_s.len(),
        out.setup_s.len(),
        out.attempted,
        out.failed
    );

    let mut metrics = String::from("{");
    if args.trace {
        for (name, unit) in PER_LAYER {
            json_metric(
                &mut metrics,
                name,
                out.layer.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match *name {
                "setup_s" => setup_s,
                "work_s" => work_s,
                "latency_ms" => latency_ms,
                "peak_rss_mb" => peak,
                other => unreachable!("unhandled end-to-end metric {other}"),
            };
            json_metric(&mut metrics, name, value, unit);
        }
    }
    metrics.push('}');
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    let record = util::out_dir().join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(
        &record,
        format!("{{\"meta\": {meta_line}, \"result\": {result}}}\n"),
    );
    println!("{result}");
    Ok(())
}

/// Run every workload in a child process of its own (so each reports
/// its own peak memory), one after the other.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        eprintln!("perfbench: === {w} ===");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{w}: {e}"))?;
        if !status.success() {
            failed.push(*w);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {failed:?}"))
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
