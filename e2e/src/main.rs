//! `pt-e2e` — see `README.md` beside this crate.

use perftrack_store::Json;
use pt_e2e::report::{self, RunReport, WorkloadReport};
use pt_e2e::workloads::open::open_rss_mb;
use pt_e2e::{run_named, spec, Config, Result, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
pt-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       [--repeat N] [--out FILE] [--emit-ptdf FILE] [--commit ID]
       [--work-dir DIR] [--out-dir DIR]
pt-e2e compare-runs A.json B.json [--bounds BENCHMARK.json]
pt-e2e bounds RUN.json
pt-e2e open-rss DIR FRAMES       (the open.smg_cold probe runs this as a child)

With --workload: one run of one workload; the last line of standard
output is the result as one JSON object (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).
Without: every workload, --repeat untraced runs and one traced run each,
median and MAD per metric; --out stores the run, --emit-ptdf writes it
as PTdf.";

/// Seconds a window measures unless told otherwise: `run_seconds` of
/// BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some("help") => return Err(USAGE.into()),
                Some(name) => {
                    let value = argv.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: not a number").into()),
        }
    }
}

fn read_json(path: &str) -> Result<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}").into())
}

fn compare_runs(args: &Args, a: &str, b: &str) -> Result<bool> {
    let benchmark = read_json(args.get("bounds").unwrap_or("BENCHMARK.json"))?;
    let (table, agree) = report::compare_runs(&read_json(a)?, &read_json(b)?, &benchmark)?;
    print!("{table}");
    println!(
        "{}",
        if agree {
            "every end-to-end metric agrees within its bound"
        } else {
            "some end-to-end metric differs by more than its bound"
        }
    );
    Ok(agree)
}

/// Every workload: `repeat` untraced runs and one traced run each.
fn full_run(args: &Args, cfg: &Config) -> Result<bool> {
    let repeat: usize = args.number("repeat", 1)?;
    let mut correct = true;
    let mut workloads = Vec::new();
    for name in spec::WORKLOADS {
        let mut untraced = Vec::new();
        for _ in 0..repeat.max(1) {
            let o = run_named(name, cfg)?;
            print!("{}", report::render(&o));
            correct &= o.correct();
            untraced.push(o);
        }
        let traced = run_named(
            name,
            &Config {
                trace: true,
                ..cfg.clone()
            },
        )?;
        print!("{}", report::render(&traced));
        correct &= traced.correct();
        workloads.push(WorkloadReport::of(&untraced, &traced));
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let run = RunReport {
        seed: cfg.seed,
        seconds: cfg.seconds,
        commit: args.get("commit").unwrap_or("unknown").to_string(),
        machine: format!("{}-{cores}cpu", std::env::consts::ARCH),
        workloads,
    };
    println!("\nmedian ±MAD over {repeat} untraced run(s); per-layer from one traced run");
    print!("{}", run.render());
    if let Some(path) = args.get("out") {
        std::fs::write(path, run.to_json().emit())?;
    }
    if let Some(path) = args.get("emit-ptdf") {
        std::fs::write(path, perftrack_ptdf::to_string(&run.to_ptdf()))?;
    }
    Ok(correct)
}

fn real_main() -> Result<bool> {
    let args = Args::parse(std::env::args().skip(1))?;
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match words.as_slice() {
        [] => {}
        ["compare-runs", a, b] => return compare_runs(&args, a, b),
        ["bounds", run] => {
            print!("{}", report::supported_bounds(&read_json(run)?)?);
            return Ok(true);
        }
        ["open-rss", dir, frames] => {
            let frames = frames.parse().map_err(|_| USAGE)?;
            println!("{}", open_rss_mb(Path::new(dir), frames)?);
            return Ok(true);
        }
        _ => return Err(USAGE.into()),
    }
    let work_dir = match args.get("work-dir") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(".pt-e2e-work"),
    }
    .join(std::process::id().to_string());
    let cfg = Config {
        seed: args.number("seed", 2005)?,
        seconds: args.number(
            "seconds",
            if args.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            },
        )?,
        trace: args.number::<u8>("trace", 0)? != 0,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        work_dir: work_dir.clone(),
        out_dir: PathBuf::from(args.get("out-dir").unwrap_or(".")),
    };
    let outcome = match args.get("workload") {
        Some(name) => run_named(name, &cfg).map(|o| {
            print!("{}", report::render(&o));
            println!("{}", report::result_line(&o));
            o.correct()
        }),
        None => full_run(&args, &cfg),
    };
    // Best effort: a failed run may have left its stores behind.
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pt-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
