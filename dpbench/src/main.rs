//! `dpbench` — the repository's benchmark.
//!
//! Five workloads over the library crates' public functions only (the
//! program is measured from outside: `Instant` pairs around calls plus the
//! counters it already exposes), end-to-end metrics from an untraced run,
//! per-layer metrics and a span file from a traced run, correctness
//! oracles in both. See `README.md` beside this package for the metric
//! tables and how to read the output.
//!
//! ```text
//! dpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result object of the contract in BENCHMARK.json
//! dpbench [--seed <n>] [--seconds <s>] [--quick] [--out <file>] [--repeat-check]
//!     every workload, each in a fresh child process (so peak memory and
//!     allocator state do not leak between them), untraced then traced
//! dpbench --emit-manifest
//!     prints BENCHMARK.json from the metric tables
//! ```

mod batch_ops;
mod bulk_build;
mod common;
mod metrics;
mod probe;
mod serve;
mod trace;

use common::{peak_rss_mb, Cfg, Fingerprint};
use metrics::{
    driver_line, json_str, manifest_json, num, quartiles, Kind, Metric, Report, END_TO_END,
    PER_LAYER, WORKLOADS,
};
use probe::KernelCosts;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// `DP_BLOCK` for every run unless the operator set one: the library's
/// auto-tune picks 512 KiB or 1 MiB from one process to the next on the
/// reference box, which moves every blocked kernel. The traced run
/// reports what auto-tune would have picked beside it.
const PINNED_BLOCK_BYTES: usize = 512 * 1024;
/// The seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1995;
/// A seed never used while the benchmark was written, for checking that
/// a claim holds on other inputs (see README).
const VERIFICATION_SEED: u64 = 424_242;
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per untraced run (`setup_s` is their lower decile). At least
/// `SETUP_MIN_REPS`, then more while they have taken under
/// `SETUP_BUDGET_S` in total. Three seconds, because a 40 ms parallel
/// service build runs half as slow again for a second or so at a time
/// whenever the scheduler has parked the submitting thread on a pool
/// worker's core (three runnable threads, two cores): sampled for one
/// second, `setup_s` came out 57 ms in one process and 76 ms in the next.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 60;
const SETUP_BUDGET_S: f64 = 3.0;

/// Pins glibc malloc's two self-adjusting thresholds. Left alone, the
/// mmap threshold climbs as large blocks are freed and the trim threshold
/// follows it, so whether a 10 MB `Vec` is carved from the heap or
/// mapped, faulted in and unmapped on every rep depends on what the
/// process happened to free earlier: the same restore took 11, 14.5 or
/// 20 ms from one process to the next. Pinned to their ceilings, large
/// blocks stay in the heap in every process. Like `DP_BLOCK`, this is
/// environment control: parent and change run under the same setting.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tunables call; it takes two
    // integers by value, touches only the allocator's own parameters, and
    // runs here before any other thread exists. 32 MiB is the largest
    // mmap threshold glibc accepts on 64-bit targets.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

/// What BENCHMARK.json tells the driver to run.
const MANIFEST_COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "dpbench/Cargo.toml",
    "--",
];
const MANIFEST_PATHS: &[&str] = &["dpbench"];
const MANIFEST_RUN_SECONDS: u32 = 15;

/// One workload, as the driver in this file sees it.
pub trait Workload {
    type Inputs;
    /// Generates every input from the seed and builds what the timed
    /// region takes as given (prerequisite trees, request streams).
    fn setup(&self, cfg: &Cfg, tr: &mut Tracer) -> Self::Inputs;
    fn fingerprint(&self, inputs: &Self::Inputs) -> Fingerprint;
    /// Tracing off: the end-to-end metrics and the oracles.
    fn run_untraced(&self, cfg: &Cfg, inputs: &Self::Inputs, report: &mut Report);
    /// Tracing on: spans, per-layer metrics, baselines and the oracles.
    fn run_traced(
        &self,
        cfg: &Cfg,
        inputs: &Self::Inputs,
        costs: &KernelCosts,
        tr: &mut Tracer,
        report: &mut Report,
    );
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Untraced,
    Traced,
    Both,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    pass: Pass,
    quick: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    repeat_check: bool,
    emit_manifest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dpbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--spans <file>] [--out <file>] [--quick] [--repeat-check] [--emit-manifest]\n\
         workloads: {}\n\
         default seed {DEFAULT_SEED}, verification seed {VERIFICATION_SEED}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        pass: Pass::Both,
        quick: false,
        spans: None,
        out: None,
        repeat_check: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name");
                if !WORKLOADS.iter().any(|s| s.name == w) {
                    eprintln!("unknown workload {w}");
                    usage();
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("a number").parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    eprintln!("--seconds must be in (0, 600]");
                    usage();
                }
            }
            "--trace" => {
                args.pass = match value("0 or 1").as_str() {
                    "0" => Pass::Untraced,
                    "1" => Pass::Traced,
                    _ => usage(),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value("a path"))),
            "--out" => args.out = Some(PathBuf::from(value("a path"))),
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--emit-manifest" => args.emit_manifest = true,
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
    }
    args
}

/// Per-layer metrics whose absence from a workload's report means "this
/// workload made no such call": the count is a true zero. Anything else
/// missing is a bug in the workload and is left missing, so the contract
/// check fails loudly.
fn zero_when_unused(name: &str) -> bool {
    name.ends_with(".self_share")
        || name.ends_with(".calls")
        || name.starts_with("dp-service.")
        || name.starts_with("dp-spatial.window.")
        || name.starts_with("dp-spatial.join.")
}

/// Runs one workload in this process.
fn drive<W: Workload>(w: &W, name: &str, cfg: &Cfg, pass: Pass, spans: Option<&PathBuf>) -> Report {
    let mut report = Report::default();
    if pass != Pass::Traced {
        let mut off = Tracer::new(false);
        let mut setup_secs: Vec<f64> = Vec::new();
        let mut inputs = None;
        let min_reps = if cfg.quick { 2 } else { SETUP_MIN_REPS };
        while setup_secs.len() < min_reps
            || (setup_secs.len() < SETUP_MAX_REPS
                && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            // Drop the previous set-up first: two live copies would
            // double the peak memory this run reports.
            drop(inputs.take());
            let t0 = Instant::now();
            inputs = Some(w.setup(cfg, &mut off));
            setup_secs.push(t0.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up ran");
        w.run_untraced(cfg, &inputs, &mut report);
        report.put_time("setup_s", "s", Kind::E2e, &setup_secs);
        report.put("peak_rss_mb", "MB", Kind::E2e, peak_rss_mb());
        let fp = w.fingerprint(&inputs);
        println!("{name} input_fingerprint hex {:016x}", fp.value());
    }
    if pass != Pass::Untraced {
        let mut tr = Tracer::new(true);
        let costs = probe::run(cfg, &mut tr, &mut report);
        let inputs = w.setup(cfg, &mut tr);
        let fp = w.fingerprint(&inputs);
        w.run_traced(cfg, &inputs, &costs, &mut tr, &mut report);
        report.put(
            "dp-workloads.input_fingerprint",
            "count",
            Kind::Exact,
            fp.json_value(),
        );
        trace_metrics(&tr, &mut report);
        for (metric, unit, _) in PER_LAYER {
            if report.get(metric).is_none() && zero_when_unused(metric) {
                report.put(metric, unit, Kind::Exact, 0.0);
            }
        }
        let path = spans.cloned().unwrap_or_else(|| default_spans_path(name));
        match std::fs::write(&path, tr.to_json(name)) {
            Ok(()) => println!("{name} spans file {}", path.display()),
            Err(e) => {
                // The metrics above do not depend on the file; say so and go on.
                eprintln!("cannot write span file {}: {e}", path.display());
            }
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("failed_frac", "ratio", Kind::Exact, failed_frac);
    report
}

/// The generic per-layer metrics every workload's span file yields.
fn trace_metrics(tr: &Tracer, report: &mut Report) {
    let (layers, root_total) = tr.layer_self_times();
    for (layer, self_ns, calls) in &layers {
        report.put(
            &format!("{layer}.self_share"),
            "ratio",
            Kind::Layer,
            *self_ns as f64 / root_total.max(1) as f64,
        );
        report.put(
            &format!("{layer}.calls"),
            "count",
            Kind::Layer,
            *calls as f64,
        );
    }
    let gen_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.layer == "dp-workloads")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    report.put("dp-workloads.gen_s", "s", Kind::Layer, gen_ns as f64 / 1e9);
    report.put("trace.spans", "count", Kind::Layer, tr.spans().len() as f64);
    report.put(
        "trace.root_coverage",
        "ratio",
        Kind::Layer,
        tr.root_coverage(),
    );
}

/// Beside the executable, which is inside the build directory the
/// repository's `.gitignore` already names.
fn default_spans_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("dpbench-spans-{workload}.json"))
}

fn run_workload(name: &str, cfg: &Cfg, pass: Pass, spans: Option<&PathBuf>) -> Report {
    match name {
        "bulk_build" => drive(&bulk_build::BulkBuild, name, cfg, pass, spans),
        "batch_ops" => drive(&batch_ops::BatchOps, name, cfg, pass, spans),
        "serve_uniform" => drive(
            &serve::Serve(serve::Flavor::Uniform),
            name,
            cfg,
            pass,
            spans,
        ),
        "serve_hot" => drive(&serve::Serve(serve::Flavor::Hot), name, cfg, pass, spans),
        "serve_write" => drive(&serve::Serve(serve::Flavor::Write), name, cfg, pass, spans),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// `workload metric unit value kind n= q1= q3=`, one line per metric.
fn print_metrics(workload: &str, report: &Report) {
    for m in &report.metrics {
        println!(
            "{workload} {} {} {} {} n={} med={} q1={} q3={}",
            m.name,
            m.unit,
            num(m.value),
            m.kind.as_str(),
            m.n,
            num(m.median),
            num(m.q1),
            num(m.q3)
        );
    }
    println!("{workload} attempted count {} exact n=1", report.attempted);
    println!("{workload} failed count {} exact n=1", report.failed);
    for f in &report.failures {
        println!("{workload} FAILURE {f}");
    }
}

/// Parses the metric lines a child printed (see [`print_metrics`]).
fn parse_metrics(workload: &str, stdout: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter_map(|line| {
            let t: Vec<&str> = line.split_whitespace().collect();
            if t.len() < 5 || t[0] != workload {
                return None;
            }
            let kind = Kind::parse(t[4])?;
            let value: f64 = t[3].parse().ok()?;
            let field = |key: &str| {
                t.iter()
                    .find_map(|x| x.strip_prefix(key))
                    .and_then(|v| v.parse::<f64>().ok())
            };
            Some(Metric {
                name: t[1].to_string(),
                unit: t[2].to_string(),
                kind,
                value,
                n: field("n=").map_or(1, |n| n as usize),
                median: field("med=").unwrap_or(value),
                q1: field("q1=").unwrap_or(value),
                q3: field("q3=").unwrap_or(value),
            })
        })
        .collect()
}

/// First line of `program args...`'s standard output, or "unknown".
fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload's metrics, by workload name: a full set of runs.
type Set = Vec<(String, Vec<Metric>)>;

/// `copies` full sets, every run in a fresh child process. The copies of
/// one workload run back to back (A B, A B, … rather than AAAAA BBBBB):
/// the box drifts by 10–20 % over minutes, and two runs compared with
/// each other should sit in the same weather. Returns the parsed metrics
/// per set, or which workload failed.
fn run_sets(args: &Args, copies: usize) -> Result<Vec<Set>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut sets: Vec<Set> = vec![Vec::new(); copies];
    for w in WORKLOADS {
        for set in &mut sets {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            match args.pass {
                Pass::Untraced => cmd.args(["--trace", "0"]),
                Pass::Traced => cmd.args(["--trace", "1"]),
                Pass::Both => &mut cmd,
            };
            // `output` waits for the child and collects its pipes.
            let out = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            if !out.status.success() {
                return Err(format!("workload {} exited with {}", w.name, out.status));
            }
            set.push((w.name.to_string(), parse_metrics(w.name, &stdout)));
        }
    }
    Ok(sets)
}

fn set_json(args: &Args, set: &Set) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"meta\": {{\"seed\": {}, \"seconds\": {}, \"quick\": {}, \"nproc\": {}, \
         \"rayon_threads\": {}, \"block_bytes\": {}, \
         \"rustc\": {}, \"git_commit\": {}}},\n  \"workloads\": [\n",
        args.seed,
        num(args.seconds),
        args.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rayon::current_num_threads(),
        scan_model::blocked::tuned_block_bytes(),
        json_str(&tool_version("rustc", &["--version"])),
        json_str(&tool_version("git", &["rev-parse", "HEAD"])),
    );
    for (i, (name, metrics)) in set.iter().enumerate() {
        let _ = writeln!(out, "    {{\"name\": {}, \"metrics\": [", json_str(name));
        for (j, m) in metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"name\": {}, \"unit\": {}, \"kind\": {}, \"value\": {}, \"n\": {}, \
                 \"median\": {}, \"q1\": {}, \"q3\": {}}}{}",
                json_str(&m.name),
                json_str(&m.unit),
                json_str(m.kind.as_str()),
                num(m.value),
                m.n,
                num(m.median),
                num(m.q1),
                num(m.q3),
                if j + 1 < metrics.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "    ]}}{}", if i + 1 < set.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The regression bound of an end-to-end metric and whether lower is
/// better: the manifest's for the gated slots; for a native-unit twin
/// (`pm1_segs_per_s` beside `op1_us`) the slots' common bound, since a
/// rate is the reciprocal of its slot and the same share applies.
fn bound_of(name: &str) -> (f64, bool) {
    match END_TO_END.iter().find(|m| m.name == name) {
        Some(m) => (m.bound, m.better == metrics::Better::Lower),
        // The twins are rates (`*_per_s`, `*_rps`: higher is better) or
        // times (`*_us`, `*_s`: lower is better).
        None => (
            END_TO_END[0].bound,
            !(name.ends_with("_per_s") || name.ends_with("_rps")),
        ),
    }
}

/// Compares two sets of the same commit and seed: every end-to-end metric
/// within its bound (the second set no worse than the first), every exact
/// count identical. Returns the disagreements.
fn compare_sets(a: &Set, b: &Set) -> Vec<String> {
    let mut bad = Vec::new();
    for ((name, first), (_, second)) in a.iter().zip(b) {
        for m in first {
            let Some(other) = second.iter().find(|o| o.name == m.name) else {
                bad.push(format!("{name} {}: missing from the second set", m.name));
                continue;
            };
            match m.kind {
                Kind::Exact if m.value != other.value => bad.push(format!(
                    "{name} {}: exact count {} then {}",
                    m.name,
                    num(m.value),
                    num(other.value)
                )),
                Kind::E2e => {
                    let (bound, lower_better) = bound_of(&m.name);
                    let worse = if lower_better {
                        other.value / m.value - 1.0
                    } else {
                        m.value / other.value - 1.0
                    };
                    if worse > bound {
                        bad.push(format!(
                            "{name} {}: {} then {} ({:.1} % worse, bound {:.0} %)",
                            m.name,
                            num(m.value),
                            num(other.value),
                            worse * 100.0,
                            bound * 100.0
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    bad
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.emit_manifest {
        print!(
            "{}",
            manifest_json(MANIFEST_COMMAND, MANIFEST_PATHS, MANIFEST_RUN_SECONDS)
        );
        return ExitCode::SUCCESS;
    }
    pin_allocator();
    // Before the first `Machine` exists: the library reads it once.
    if std::env::var_os("DP_BLOCK").is_none() {
        std::env::set_var("DP_BLOCK", PINNED_BLOCK_BYTES.to_string());
    }

    if let Some(name) = &args.workload {
        let cfg = Cfg {
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
        };
        println!(
            "{name} seed {} seconds {} nproc {} rayon_threads {} block_bytes {}",
            cfg.seed,
            cfg.seconds,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            rayon::current_num_threads(),
            scan_model::blocked::tuned_block_bytes()
        );
        let report = run_workload(name, &cfg, args.pass, args.spans.as_ref());
        print_metrics(name, &report);
        // The contract's result line, last: the gated list for an
        // untraced run, the per-layer list for a traced one.
        let names: Vec<&str> = match args.pass {
            Pass::Traced => PER_LAYER.iter().map(|m| m.0).collect(),
            _ => END_TO_END.iter().map(|m| m.name).collect(),
        };
        println!("{}", driver_line(&report, &names));
        return if report.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let sets = match run_sets(&args, if args.repeat_check { 2 } else { 1 }) {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let first = &sets[0];
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, set_json(&args, first)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if let Some(second) = sets.get(1) {
        for ((name, a), (_, b)) in first.iter().zip(second) {
            for m in a.iter().filter(|m| m.kind == Kind::E2e) {
                if let Some(o) = b.iter().find(|o| o.name == m.name) {
                    let (_, med, _) = quartiles(&[m.value, o.value]);
                    println!(
                        "repeat {name} {} {} then {} ({:+.2} % of their mean)",
                        m.name,
                        num(m.value),
                        num(o.value),
                        (o.value - m.value) / med * 100.0
                    );
                }
            }
        }
        let bad = compare_sets(first, second);
        if args.quick {
            println!("repeat-check: --quick runs are not held to bounds");
        } else if !bad.is_empty() {
            for b in &bad {
                eprintln!("repeat-check: {b}");
            }
            return ExitCode::FAILURE;
        } else {
            println!("repeat-check OK: two sets agree within every bound and on every exact count");
        }
    }
    ExitCode::SUCCESS
}
