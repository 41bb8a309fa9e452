//! `pt` — the PerfTrack command-line interface.
//!
//! The paper ships a script-based interface beside the GUI; `pt` is its
//! equivalent: initialize stores, generate the synthetic study datasets,
//! batch-convert raw tool output (PTdfGen), load PTdf, and run
//! queries/reports/charts/comparisons from the shell.

mod args;
mod commands;
mod remote;

use std::process::ExitCode;

const USAGE: &str = "\
pt — PerfTrack performance experiment management

USAGE:
  pt init <store-dir>
  pt machines <store-dir> [--nodes N]
  pt gen <irs|smg-uv|smg-bgl|paradyn> <out-dir> [--execs N] [--seed S]
  pt convert <raw-dir> --index <file> --out <dir>
  pt load <store-dir> <ptdf-file>... [--resume] [--batch N]
          [--verify] [--profile] [--json]
  pt report <store-dir> [summary|types|executions|metrics|tables]
  pt report <store-dir> execution <name> | resource <full-name>
  pt stats <store-dir> [--json]
  pt analyze <store-dir>
  pt fsck <store-dir> [--deep] [--json]
  pt delete <store-dir> <execution>
  pt query <store-dir> [--name PAT]... [--type PATH]... [--relatives D|A|B|N]
          [--add-column TYPE]... [--csv] [--profile] [--explain] [--json]
  pt explain <store-dir> [--name PAT]... [--type PATH]... [--relatives D|A|B|N]
          [--json]
  pt count <store-dir> [--name PAT]... [--type PATH]...
  pt chart <store-dir> --name PAT --category COL --series COL [--title T] [--svg F]
  pt predict <store-dir> --metric M --train E1,E2,.. [--check EXEC] [--at NP]
  pt compare <store-dir> <exec-a> <exec-b> [exec...] [--json|--table] [--top K]
          [--threshold PCT] [--agg mean|sum|min|max] [--normalize raw|share]
  pt export <store-dir> <out-file>
  pt serve <store-dir> [--bind ADDR | --port N] [--workers N] [--queue N]
          [--deadline-ms N] [--idle-ms N]
  pt --connect host:port <ping|load|query|stats|fsck|compare|export|shutdown> [args...]";

fn main() -> ExitCode {
    // `pt ... | head` closes stdout early; Rust's println! panics on the
    // resulting EPIPE. Treat a broken pipe as a normal quiet exit, like
    // every other Unix CLI.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or_default();
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // `pt --connect host:port <cmd> ...` routes a subcommand through the
    // network client instead of opening a local store.
    if argv[0] == "--connect" {
        if argv.len() < 3 {
            eprintln!("pt --connect: usage: pt --connect host:port <command> [args...]");
            return ExitCode::FAILURE;
        }
        let (addr, cmd, rest) = (&argv[1], argv[2].as_str(), &argv[3..]);
        return match remote::dispatch(addr, cmd, rest) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("pt --connect {cmd}: {e}");
                ExitCode::from(commands::exit_code_for(&e).max(1))
            }
        };
    }
    let cmd = argv[0].as_str();
    let rest = &argv[1..];
    // `pt load` has a documented multi-valued exit-code contract
    // (0/2/3/4/5; see README); every other command exits 0, 1, or 5.
    let result: Result<u8, args::CliError> = match cmd {
        "init" => commands::init(rest).map(|()| 0),
        "machines" => commands::machines(rest).map(|()| 0),
        "gen" => commands::gen(rest).map(|()| 0),
        "convert" => commands::convert(rest).map(|()| 0),
        "load" => commands::load(rest),
        "report" => commands::report(rest).map(|()| 0),
        "stats" => commands::stats(rest).map(|()| 0),
        "analyze" => commands::analyze(rest).map(|()| 0),
        "fsck" => commands::fsck(rest).map(|()| 0),
        "query" => commands::query(rest).map(|()| 0),
        "explain" => commands::explain(rest).map(|()| 0),
        "count" => commands::count(rest).map(|()| 0),
        "chart" => commands::chart(rest).map(|()| 0),
        "compare" => commands::compare(rest).map(|()| 0),
        "predict" => commands::predict(rest).map(|()| 0),
        "delete" => commands::delete(rest).map(|()| 0),
        "export" => commands::export(rest).map(|()| 0),
        "serve" => remote::serve(rest).map(|()| 0),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("pt {cmd}: {e}");
            ExitCode::from(commands::exit_code_for(&e).max(1))
        }
    }
}
