//! Local and remote `pt` print the same answers: each command gives
//! byte-identical stdout as `pt <cmd> <store-dir>` and as
//! `pt --connect ADDR <cmd>` against `pt serve` on the same store, and
//! `export` writes a byte-identical file. Remote `stats --json` holds
//! every top-level key of the local document, plus `server`.

use perftrack_store::metrics::Json;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn pt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two executions; one metric name holds a comma, which CSV must quote.
const PTDF: &str = "\
Application App
Resource /build build
Resource /build/main.c build/module
Resource /build/main.c/solve build/module/function
Resource /build/main.c/init build/module/function
Execution e1 App
Execution e2 App
PerfResult e1 /build/main.c/solve(primary) T \"wall time, max\" 1.5 s
PerfResult e1 /build/main.c/init(primary) T \"CPU time\" 1.0 seconds
PerfResult e2 /build/main.c/solve(primary) T \"wall time, max\" 6.0 s
PerfResult e2 /build/main.c/init(primary) T \"CPU time\" 1.0 seconds
";

fn ok(out: Output, what: &str) -> String {
    assert_eq!(out.status.code(), Some(0), "{what}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// A `pt serve` child, killed if the test fails before it drains.
struct Serving(Child);

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn top_level_keys(json: &str) -> Vec<String> {
    match Json::parse(json.trim_end()).unwrap() {
        Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn local_and_remote_commands_print_the_same_bytes() {
    let dir = tmpdir("same-bytes");
    let store = dir.join("store");
    let file = dir.join("in.ptdf");
    let export = dir.join("out.ptdf");
    std::fs::write(&file, PTDF).unwrap();
    let (store, export) = (store.to_str().unwrap(), export.to_str().unwrap());
    ok(
        pt().args(["load", store, file.to_str().unwrap()])
            .output()
            .unwrap(),
        "load",
    );

    let cases: [&[&str]; 7] = [
        &["query", "--name", "main.c"],
        &["query", "--name", "main.c", "--csv"],
        &["fsck", "--json"],
        &["fsck", "--deep"],
        &["compare", "e1", "e2", "--json"],
        &["compare", "e1", "e2", "--top", "5"],
        &["export", export],
    ];
    let local: Vec<(String, Vec<u8>)> = cases
        .iter()
        .map(|args| {
            let out = pt().arg(args[0]).arg(store).args(&args[1..]).output();
            let stdout = ok(out.unwrap(), &format!("local {args:?}"));
            (stdout, std::fs::read(export).unwrap_or_default())
        })
        .collect();
    let csv = &local[1].0;
    assert!(csv.contains("e1,\"wall time, max\",1.5,s,T\n"), "{csv}");
    let local_stats = ok(
        pt().args(["stats", store, "--json"]).output().unwrap(),
        "local stats",
    );

    let mut server = Serving(
        pt().args(["serve", store])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut announce = String::new();
    BufReader::new(server.0.stdout.take().unwrap())
        .read_line(&mut announce)
        .unwrap();
    let addr = announce
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce:?}"))
        .trim()
        .to_string();
    let remote = |args: &[&str]| {
        let out = pt().args(["--connect", &addr]).args(args).output().unwrap();
        ok(out, &format!("remote {args:?}"))
    };

    for (args, (stdout, file)) in cases.iter().zip(&local) {
        std::fs::remove_file(export).ok();
        assert_eq!(&remote(args), stdout, "{args:?}");
        assert_eq!(&std::fs::read(export).unwrap_or_default(), file, "{args:?}");
    }
    let remote_stats = top_level_keys(&remote(&["stats", "--json"]));
    for key in top_level_keys(&local_stats)
        .iter()
        .chain([&"server".into()])
    {
        assert!(
            remote_stats.contains(key),
            "{key} missing: {remote_stats:?}"
        );
    }

    remote(&["shutdown"]);
    assert_eq!(server.0.wait().unwrap().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
