//! `fbmark` — the repository's end-to-end benchmark. See `README.md`
//! beside `Cargo.toml` for what it measures and why.
//!
//! ```text
//! fbmark run --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result JSON
//! fbmark run [--seed N] [--seconds S] [--repeat K] [--smoke]  every workload; writes out/result-<seed>.json
//! fbmark trace [--workload W] [--seed N] [--seconds S]        traced runs; writes out/trace-<workload>.jsonl
//! fbmark compare A.json B.json                                verdict per workload x metric; exit 1 on `worse`
//! ```

mod compare;
mod harness;
mod json;
mod stats;
mod trace;
mod workloads;

use harness::{run_traced, Pass, RunOpts, Scratch, Traced, END_TO_END, PER_LAYER};
use json::{num, quote, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Scale, WORKLOADS};

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// The benchmark's own directory, where `out/` lives.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    self_test: bool,
    files: Vec<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let command = argv
        .next()
        .ok_or("missing command: run | trace | compare")?;
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: command == "trace",
        repeat: 1,
        smoke: false,
        self_test: false,
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => args.seconds = parse(&value("a number")?)?,
            "--trace" => args.trace = parse::<u8>(&value("0 or 1")?)? != 0,
            "--repeat" => args.repeat = parse(&value("a count")?)?,
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.files.push(PathBuf::from(arg)),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be between 0 and 60".into());
    }
    Ok((command, args))
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("cannot parse `{text}`"))
}

fn main() -> ExitCode {
    let outcome =
        parse_args(std::env::args().skip(1)).and_then(|(command, args)| match command.as_str() {
            "run" | "trace" => match &args.workload {
                Some(w) if !args.trace => run_one(w, &args),
                Some(w) => trace_one(w, &args),
                None if args.trace => WORKLOADS
                    .iter()
                    .try_fold(true, |ok, (w, _)| Ok(trace_one(w, &args)? && ok)),
                None => run_all(&args),
            },
            "compare" => match args.files.as_slice() {
                [a, b] => compare::compare(a, b, &bench_dir().join("../BENCHMARK.json")),
                _ => Err("compare needs two result files".into()),
            },
            other => Err(format!("unknown command `{other}`")),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fbmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn opts(args: &Args) -> RunOpts {
    RunOpts {
        seed: args.seed,
        // A smoke run is the fixed segments only.
        seconds: if args.smoke { 0.0 } else { args.seconds },
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        self_test: args.self_test,
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(pass: &Pass, metrics: &[(&str, f64)], units: &[(&str, &str, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(units)
        .map(|((name, value), (_, unit, _))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.correct(),
        pass.attempted,
        pass.failed,
        body.join(", ")
    )
}

fn print_metrics(metrics: &[(&str, f64)], units: &[(&str, &str, &str)]) {
    for ((name, value), (_, unit, better)) in metrics.iter().zip(units) {
        println!("  {name:<32} {value:>16.4} {unit:<6} ({better} is better)");
    }
}

/// One untraced run of one workload, as the driver invokes it.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let mut scratch = Scratch::new(&out_dir()?)?;
    let pass = harness::run(workload, opts(args), &mut scratch)?;
    let metrics = pass.end_to_end();
    println!("{workload} seed {} [{}]", args.seed, pass.config);
    print_metrics(&metrics, &END_TO_END);
    println!("  {} (ungated)", pass.tails());
    println!(
        "  oracle: {} checked, {} failed; {} of {} operations failed",
        pass.oracle_checked,
        pass.oracle_failed,
        pass.failed - pass.oracle_failed,
        pass.attempted - pass.oracle_checked
    );
    println!("{}", result_line(&pass, &metrics, &END_TO_END));
    Ok(pass.correct())
}

/// One traced run of one workload: per-layer metrics and the span file.
fn trace_one(workload: &str, args: &Args) -> Result<bool, String> {
    let Traced {
        pass,
        metrics,
        table,
    } = run_traced(workload, opts(args), &out_dir()?)?;
    println!("{workload} seed {} traced [{}]", args.seed, pass.config);
    print!("{table}");
    print_metrics(&metrics, &PER_LAYER);
    println!("{}", result_line(&pass, &metrics, &PER_LAYER));
    Ok(pass.correct())
}

/// Every workload, `--repeat` times each, into `out/result-<seed>.json`.
/// Each run is a process of its own, started exactly as the driver starts
/// one: a second run in a warm process is measurably faster than a first
/// (its heap is already backed by memory), so they must not be mixed.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_correct = true;
    let mut sections = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for _ in 0..args.repeat.max(1) {
            let mut run = std::process::Command::new(&exe);
            run.args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(args.smoke.then_some("--smoke"))
                .args(args.self_test.then_some("--self-test"))
                .stderr(std::process::Stdio::inherit());
            let output = run.output().map_err(|e| format!("start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{report}");
            let result = Json::parse(line).map_err(|e| format!("{workload}'s result: {e}"))?;
            let field = |name: &str| result.get(name).and_then(Json::as_f64);
            for (slot, (name, _, _)) in values.iter_mut().zip(END_TO_END) {
                let metric = result.get("metrics").and_then(|m| m.get(name));
                let value = metric.and_then(|m| m.get("value")).and_then(Json::as_f64);
                slot.push(value.ok_or_else(|| format!("{workload} reports no {name}"))?);
            }
            attempted += field("attempted").unwrap_or(0.0);
            failed += field("failed").unwrap_or(0.0);
        }
        all_correct &= failed == 0.0;
        let metrics: Vec<String> = END_TO_END
            .iter()
            .zip(&values)
            .map(|((name, unit, _), v)| {
                format!(
                    "      {}: {{\"unit\": {}, \"values\": [{}], \"median\": {}, \"spread\": {}}}",
                    quote(name),
                    quote(unit),
                    v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", "),
                    num(stats::median(v)),
                    num(stats::spread(v))
                )
            })
            .collect();
        sections.push(format!(
            "    {}: {{\n      \"config\": {},\n      \"attempted_ops\": {attempted},\n      \"failed_ops\": {failed},\n{}\n    }}",
            quote(workload),
            quote(workloads::config(workload)),
            metrics.join(",\n")
        ));
    }
    let out = out_dir()?;
    let text = format!(
        "{{\n  \"benchmark\": \"fbmark\",\n  \"host_cores\": {},\n  \"rustc\": {},\n  \"commit\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"repeat\": {},\n  \"smoke\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quote(&tool_output("rustc", &["--version"])),
        quote(&tool_output("git", &["-C", &bench_dir().display().to_string(), "rev-parse", "HEAD"])),
        args.seed,
        num(args.seconds),
        args.repeat.max(1),
        args.smoke,
        sections.join(",\n")
    );
    let path = out.join(format!("result-{}.json", args.seed));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// First line a tool prints, or `unknown` where it cannot run (the
/// driver's checkout is not a git repository).
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests;
