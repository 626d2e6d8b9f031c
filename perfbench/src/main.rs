//! `perfbench` — one run of one benchmark workload.
//!
//! ```text
//! perfbench --workload <grid-quick|greedy-1000|exact-small> --seed <n>
//!           --seconds <s> --trace <0|1> [--jsonl <path>]
//! ```
//!
//! Every run sets the workload up and makes one untraced
//! layer-by-layer pass that checks every schedule and fixes the expected
//! results and their digest.
//!
//! * `--trace 0` then times a fixed number of whole passes of the
//!   program's own entry points (`--seconds` ÷ the workload's seconds
//!   per pass), compares every result with the checked pass, times
//!   batches of set-ups between the passes, and reports the end-to-end
//!   metrics.
//! * `--trace 1` instead times one untraced set-up batch and layer pass
//!   as the base, repeats set-up and the layer pass with `cawo_obs`
//!   tracing on, writes the spans and counters as JSONL to `--jsonl`,
//!   and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py`
//! builds this binary, runs it on one worker thread and checks the
//! JSONL with `obs_check`.

mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use workload::{Bench, Checks, PassTotals, Row, Workload};

/// Set-up batches per timed run, spread evenly over its passes.
const SETUP_BATCHES: usize = 6;
/// Shortest set-up batch, in seconds. `setup_s` is the median over the
/// batches of each batch's fastest set-up.
const SETUP_BATCH_S: f64 = 0.4;

/// The engine's pricing counters, by exported name.
const PRICE_COUNTERS: [&str; 3] = [
    "engine.price.dense",
    "engine.price.interval",
    "engine.price.fenwick",
];

/// The layer spans the benchmark records around public calls. They do
/// not nest in one another, so their sum plus `sim.self_ms` is the
/// traced wall time.
const LAYER_SPANS: [(&str, &str, &str); 10] = [
    ("graph", "generate", "graph.generate_ms"),
    ("heft", "map", "heft.map_ms"),
    ("core", "gc_build", "core.gc_build_ms"),
    ("platform", "profile", "platform.profile_ms"),
    ("core", "greedy", "core.greedy_ms"),
    ("core", "local_search", "core.ls_ms"),
    ("core", "cost", "core.cost_ms"),
    ("core", "validate", "core.validate_ms"),
    ("exact", "milp", "exact.milp_ms"),
    ("exact", "bnb", "exact.bnb_ms"),
];

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    jsonl: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload_name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace `{t}` (expected 0 or 1)")),
    };
    let jsonl = get("--jsonl").map(PathBuf::from);
    if trace && jsonl.is_none() {
        return Err("--trace 1 needs --jsonl <path>".into());
    }
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        jsonl,
    })
}

/// Linear-interpolated quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every cost, status and node column of a pass.
fn digest(rows: &[Vec<Row>]) -> u64 {
    let mut h = FNV_OFFSET;
    for (i, inst) in rows.iter().enumerate() {
        for (j, r) in inst.iter().enumerate() {
            h = fnv1a(
                h,
                format!("{i}:{j}:{}:{}:{};", r.cost, r.status, r.nodes).as_bytes(),
            );
        }
    }
    h
}

/// Compares the digest with the one an earlier run of this same binary
/// stored for this workload and seed, in a directory next to the
/// binary, and stores it when there is none. Returns false on a
/// mismatch.
fn digest_repeats(workload: &str, seed: u64, digest: u64) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        return true;
    };
    let Ok(bytes) = std::fs::read(&exe) else {
        return true;
    };
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-digests");
    let file = dir.join(format!(
        "{workload}-{seed}-{:016x}",
        fnv1a(FNV_OFFSET, &bytes)
    ));
    let ours = format!("{digest:016x}");
    match std::fs::read_to_string(&file) {
        Ok(stored) => stored.trim() == ours,
        Err(_) => {
            // A lost race or an unwritable directory only skips the
            // cross-run comparison.
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &ours));
            true
        }
    }
}

/// Mean per-instance carbon saving against ASAP (row 0), in percent,
/// over every other algorithm of every instance with a nonzero ASAP
/// cost.
fn carbon_saving_pct(rows: &[Vec<Row>]) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for inst in rows {
        let asap = inst[0].cost as f64;
        if asap == 0.0 {
            continue;
        }
        for r in inst[1..].iter().filter(|r| r.status != "error") {
            sum += 100.0 * (asap - r.cost as f64) / asap;
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// One layer-by-layer pass over every instance.
fn layer_pass(bench: &Bench) -> (Vec<Vec<Row>>, PassTotals) {
    let mut totals = PassTotals::default();
    let rows = (0..bench.len())
        .map(|i| bench.run_layers(i, &mut totals))
        .collect();
    (rows, totals)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Seconds of the fastest set-up in one batch of at least
/// [`SETUP_BATCH_S`]. Like an instance's best pass, the fastest of many
/// set-ups is the time that repeats on a host whose speed other load
/// changes from moment to moment.
fn setup_batch(args: &Args) -> f64 {
    let (t_batch, mut best) = (Instant::now(), f64::INFINITY);
    while best.is_infinite() || t_batch.elapsed().as_secs_f64() < SETUP_BATCH_S {
        let t0 = Instant::now();
        drop(std::hint::black_box(Bench::setup(args.workload, args.seed)));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// `--trace 0`: a fixed number of whole passes of the program's own
/// entry points, with set-up batches timed between them. Returns the
/// end-to-end metrics except the check share.
fn timed_metrics(
    args: &Args,
    bench: &Bench,
    expected: &[Vec<Row>],
    checks: &mut Checks,
) -> Vec<String> {
    // The pass count depends on `--seconds` only, never on the host's
    // speed, so the best-of-passes estimator below is the same
    // statistic on every run.
    let passes = args.workload.passes(args.seconds);
    // best_ms[i]: instance i's fastest pass. Co-tenants slow the host by
    // up to half for seconds at a time; an instance's fastest pass is
    // the time that repeats.
    let mut best_ms = vec![f64::INFINITY; expected.len()];
    let mut setups = Vec::new();
    for pass in 1..=passes {
        let t_pass = Instant::now();
        for (i, want) in expected.iter().enumerate() {
            let t0 = Instant::now();
            let got = std::hint::black_box(bench.run_timed(i));
            best_ms[i] = best_ms[i].min(t0.elapsed().as_secs_f64() * 1e3);
            checks.check(got == *want, || {
                format!("instance {i}: timed run differs from the checked pass")
            });
        }
        eprintln!(
            "perfbench: pass {pass}/{passes}: {:.3} s",
            t_pass.elapsed().as_secs_f64()
        );
        while setups.len() < SETUP_BATCHES * pass / passes {
            setups.push(setup_batch(args));
        }
    }
    let best_total_s = best_ms.iter().sum::<f64>() / 1e3;
    best_ms.sort_by(f64::total_cmp);
    vec![
        metric(
            "instances_per_s",
            best_ms.len() as f64 / best_total_s,
            "1/s",
        ),
        metric("instance_ms_p50", quantile(&best_ms, 0.5), "ms"),
        metric("instance_ms_p90", quantile(&best_ms, 0.9), "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("carbon_saving_pct", carbon_saving_pct(expected), "%"),
    ]
}

/// `--trace 1`: an untraced layer pass as the base, then set-up and
/// the layer pass with tracing on. Writes the JSONL and returns the
/// per-layer metrics.
fn traced_metrics(
    args: &Args,
    bench: Bench,
    setup_s: f64,
    expected: &[Vec<Row>],
    checks: &mut Checks,
) -> Result<Vec<String>, String> {
    // The checked pass warmed caches and clocks; time a second
    // untraced pass as the base of the overhead ratio.
    let t0 = Instant::now();
    let (rows, _) = layer_pass(&bench);
    let untraced_ms = (setup_s + t0.elapsed().as_secs_f64()) * 1e3;
    checks.check(rows == expected, || {
        "second untraced pass differs from the first".into()
    });
    drop(bench);

    cawo_obs::set_level(cawo_obs::Level::Trace);
    let _ = cawo_obs::drain();
    let t0 = Instant::now();
    let bench = Bench::setup(args.workload, args.seed);
    let (rows, totals) = layer_pass(&bench);
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = cawo_obs::drain();
    cawo_obs::set_level(cawo_obs::Level::Off);
    checks.attempted += totals.checks.attempted;
    checks.failed += totals.checks.failed;
    checks.check(rows == expected, || {
        "traced pass differs from the untraced pass".into()
    });

    let path = args.jsonl.as_ref().expect("checked in parse_args");
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    cawo_obs::write_jsonl(&snap, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Counters are looked up by their exported name, so one that a
    // later version of the program drops reads as 0.
    let ctr = |name: &str| {
        snap.counters
            .iter()
            .find(|(c, _)| c.name() == name)
            .map_or(0, |&(_, v)| v) as f64
    };
    let count = |name: &str, v: f64| metric(name, v, "count");
    let mut out = Vec::new();
    let mut layers_ms = 0.0;
    eprintln!("perfbench: traced wall {traced_ms:.1} ms");
    for (cat, name, label) in LAYER_SPANS {
        let ms = snap
            .span(cat, name)
            .map_or(0.0, |a| a.total_us as f64 / 1e3);
        layers_ms += ms;
        eprintln!(
            "  {label:<22} {ms:>12.1} ms {:>6.1}%",
            100.0 * ms / traced_ms
        );
        out.push(metric(label, ms, "ms"));
    }
    let self_ms = traced_ms - layers_ms;
    eprintln!(
        "  {:<22} {self_ms:>12.1} ms {:>6.1}%",
        "sim.self_ms",
        100.0 * self_ms / traced_ms
    );
    let mut price_calls = 0.0;
    for name in PRICE_COUNTERS {
        price_calls += ctr(name);
        out.push(count(name, ctr(name)));
    }
    out.extend([
        count("core.ls.rounds", totals.ls.rounds as f64),
        count("core.ls.moves", totals.ls.moves as f64),
        metric(
            "core.ls.move_yield",
            totals.ls.moves as f64 / price_calls.max(1.0),
            "ratio",
        ),
        count(
            "core.greedy_calls",
            snap.span("core", "greedy").map_or(0, |a| a.count) as f64,
        ),
        count("core.gc_nodes", bench.gc_nodes() as f64),
        count("milp.nodes", ctr("milp.nodes")),
        count("bnb.nodes", ctr("bnb.nodes")),
        metric(
            "exact.proved_ratio",
            totals.proved as f64 / totals.solves.max(1) as f64,
            "ratio",
        ),
        count(
            "lp.pivots",
            ctr("lp.pivots.phase1") + ctr("lp.pivots.phase2") + ctr("lp.pivots.dual"),
        ),
        count("lp.solves", ctr("lp.solves")),
        count("lp.refactors", ctr("lp.refactors")),
        count("cuts.rounds", ctr("cuts.rounds")),
        metric("sim.self_ms", self_ms, "ms"),
        metric("obs.overhead_ratio", traced_ms / untraced_ms, "ratio"),
    ]);
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    eprintln!(
        "perfbench: workload {} seed {} ({}s{})",
        args.workload_name,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );

    let bench = Bench::setup(args.workload, args.seed);
    let (expected, gate) = layer_pass(&bench);
    let mut checks = gate.checks;
    let dig = digest(&expected);
    checks.check(digest_repeats(&args.workload_name, args.seed, dig), || {
        "digest differs from an earlier run of this binary and seed".into()
    });
    println!(
        "digest {} seed {}: {dig:016x} ({} instances, {} rows)",
        args.workload_name,
        args.seed,
        expected.len(),
        expected.iter().map(Vec::len).sum::<usize>()
    );

    let metrics = if args.trace {
        let setup_s = setup_batch(args);
        traced_metrics(args, bench, setup_s, &expected, &mut checks)?
    } else {
        let mut m = timed_metrics(args, &bench, &expected, &mut checks);
        m.push(metric(
            "checks_passed_pct",
            100.0 * (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
            "%",
        ));
        m
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
