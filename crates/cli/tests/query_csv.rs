//! `pt query --csv` over every result of a store, driven through the real
//! binary: the wide-query render, byte for byte. The fixture has results
//! with two foci and foci shared across results, so the goldens pin how
//! contexts are merged and how `--add-column` joins several resources of
//! one type (`init+solve`) or finds none (an empty cell).

use std::path::PathBuf;
use std::process::Command;

fn pt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-query-csv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two executions over one build tree and two machines. Every result
/// names something under `/build`, so `--name /build` returns them all.
const PTDF: &str = "\
Application App
Resource /app application
Resource /build build
Resource /build/a.c build/module
Resource /build/a.c/solve build/module/function
Resource /build/a.c/init build/module/function
Resource /build/b.c build/module
Resource /build/b.c/io build/module/function
Resource /grid grid
Resource /grid/m1 grid/machine
Resource /grid/m2 grid/machine
Execution e1 App
Execution e2 App
PerfResult e1 \"/app,/build/a.c/solve,/grid/m1(primary)\" Timer \"CPU time\" 2.0 seconds
PerfResult e1 \"/app,/build/a.c/init,/grid/m1(primary)\" Timer \"CPU time\" 1.0 seconds
PerfResult e1 \"/app,/build/a.c/solve,/grid/m1(primary)\" Timer \"wall time\" 2.25 seconds
PerfResult e1 \"/app,/build/a.c/solve,/grid/m1(primary):/build/a.c/init(parent)\" Timer \"call time\" 0.5 seconds
PerfResult e1 \"/build/b.c/io(primary):/app,/grid/m1(parent)\" Counter \"bytes written\" 4096 bytes
PerfResult e2 \"/app,/build/a.c/solve,/grid/m2(primary)\" Timer \"CPU time\" 8.0 seconds
PerfResult e2 \"/app,/build/a.c/init,/grid/m2(primary)\" Timer \"CPU time\" 1.0 seconds
PerfResult e2 \"/app,/build/a.c/solve,/grid/m2(primary):/build/a.c/init(parent)\" Timer \"call time\" 0.75 seconds
PerfResult e2 \"/build/b.c/io(primary):/app,/grid/m2(parent)\" Counter \"bytes written\" 8192 bytes
PerfResult e2 \"/build/a.c(primary):/build/b.c(parent)\" Timer \"CPU time\" 9.5 seconds
PerfResult e2 \"/build/b.c/io(primary):/app,/grid/m2(parent)\" Counter \"bytes read\" 1e3 bytes
";

const GOLDEN_ALL: &str = "\
execution,metric,value,units,tool
e1,CPU time,2,seconds,Timer
e1,CPU time,1,seconds,Timer
e1,wall time,2.25,seconds,Timer
e1,call time,0.5,seconds,Timer
e1,bytes written,4096,bytes,Counter
e2,CPU time,8,seconds,Timer
e2,CPU time,1,seconds,Timer
e2,call time,0.75,seconds,Timer
e2,bytes written,8192,bytes,Counter
e2,CPU time,9.5,seconds,Timer
e2,bytes read,1000,bytes,Counter
";

const GOLDEN_COLUMNS: &str = "\
execution,metric,value,units,tool,function,machine
e1,CPU time,2,seconds,Timer,solve,m1
e1,CPU time,1,seconds,Timer,init,m1
e1,wall time,2.25,seconds,Timer,solve,m1
e1,call time,0.5,seconds,Timer,init+solve,m1
e1,bytes written,4096,bytes,Counter,io,m1
e2,CPU time,8,seconds,Timer,solve,m2
e2,CPU time,1,seconds,Timer,init,m2
e2,call time,0.75,seconds,Timer,init+solve,m2
e2,bytes written,8192,bytes,Counter,io,m2
e2,CPU time,9.5,seconds,Timer,,
e2,bytes read,1000,bytes,Counter,io,m2
";

#[test]
fn wide_query_csv_matches_golden() {
    let dir = tmpdir("wide");
    let file = dir.join("wide.ptdf");
    std::fs::write(&file, PTDF).unwrap();
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let out = pt()
        .args(["load", store, file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "load failed: {out:?}");
    let extra = [
        "--add-column",
        "build/module/function",
        "--add-column",
        "grid/machine",
    ];
    for (columns, golden) in [(&[][..], GOLDEN_ALL), (&extra[..], GOLDEN_COLUMNS)] {
        let mut args = vec!["query", store, "--name", "/build", "--csv"];
        args.extend_from_slice(columns);
        let out = pt().args(&args).output().unwrap();
        assert!(out.status.success(), "query failed: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden,
            "{columns:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
