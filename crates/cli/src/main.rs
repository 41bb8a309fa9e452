//! `pt` — the PerfTrack command-line interface.
//!
//! The paper ships a script-based interface beside the GUI; `pt` is its
//! equivalent: initialize stores, generate the synthetic study datasets,
//! batch-convert raw tool output (PTdfGen), load PTdf, and run
//! queries/reports/charts/comparisons from the shell.

mod args;
mod commands;
mod remote;

use perftrack_server::Request;
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
  pt serve <store-dir> [--bind ADDR | --port N] [--workers N] [--idle-ms N]
  pt --connect host:port <ping|load|query|stats|fsck|compare|export|shutdown> [args...]
          (args as the local command's, less <store-dir> and the local-only
          options listed in docs/SERVER.md §8)";

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
    // `pt --connect host:port <cmd> ...` runs a command against a running
    // `pt serve` instead of a local store, through the same table.
    let (connect, cmd, rest) = if argv[0] == "--connect" {
        if argv.len() < 3 {
            eprintln!("pt --connect: usage: pt --connect host:port <command> [args...]");
            return ExitCode::FAILURE;
        }
        (Some(argv[1].as_str()), argv[2].as_str(), &argv[3..])
    } else {
        (None, argv[0].as_str(), &argv[1..])
    };
    // `pt load` has a documented multi-valued exit-code contract
    // (0/2/3/4/5; see README); every other command exits 0, 1, or 5.
    let result: Result<u8, args::CliError> = match (cmd, connect) {
        ("query", _) => commands::query(connect, rest).map(|()| 0),
        ("stats", _) => commands::stats(connect, rest).map(|()| 0),
        ("fsck", _) => commands::fsck(connect, rest).map(|()| 0),
        ("compare", _) => commands::compare(connect, rest).map(|()| 0),
        ("export", _) => commands::export(connect, rest).map(|()| 0),
        ("load", Some(addr)) => remote::load(addr, rest),
        ("ping", Some(addr)) => commands::session(addr, &Request::Ping, rest).map(|()| 0),
        ("shutdown", Some(addr)) => commands::session(addr, &Request::Shutdown, rest).map(|()| 0),
        (other, Some(_)) => Err(format!(
            "unknown remote command {other:?} (supported: ping, load, query, stats, fsck, compare, export, shutdown)"
        )
        .into()),
        ("init", None) => commands::init(rest).map(|()| 0),
        ("machines", None) => commands::machines(rest).map(|()| 0),
        ("gen", None) => commands::gen(rest).map(|()| 0),
        ("convert", None) => commands::convert(rest).map(|()| 0),
        ("load", None) => commands::load(rest),
        ("report", None) => commands::report(rest).map(|()| 0),
        ("analyze", None) => commands::analyze(rest).map(|()| 0),
        ("explain", None) => commands::explain(rest).map(|()| 0),
        ("count", None) => commands::count(rest).map(|()| 0),
        ("chart", None) => commands::chart(rest).map(|()| 0),
        ("predict", None) => commands::predict(rest).map(|()| 0),
        ("delete", None) => commands::delete(rest).map(|()| 0),
        ("serve", None) => remote::serve(rest).map(|()| 0),
        (other, None) => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            let via = if connect.is_some() { " --connect" } else { "" };
            eprintln!("pt{via} {cmd}: {e}");
            ExitCode::from(commands::exit_code_for(&e).max(1))
        }
    }
}
