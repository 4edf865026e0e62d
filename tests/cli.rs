//! The `dpspatial` binary end to end: malformed input exits 1 with a
//! `dpspatial: <reason>` line instead of a panic, and one well-formed
//! generate → build → query → nearest → join run succeeds.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dpspatial(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpspatial"))
        .args(args)
        .output()
        .expect("the dpspatial binary runs")
}

/// Writes `csv` to a map file of its own and returns its path.
fn map(name: &str, csv: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), &format!("cli-{name}.csv")]
        .iter()
        .collect();
    std::fs::write(&path, csv).expect("map file written");
    path.to_str().unwrap().to_owned()
}

#[test]
fn malformed_input_exits_1_naming_the_reason() {
    let negative = map("negative", "1,1,3,3\n-1,2,3,4\n");
    let nan = map("nan", "1,1,3,3\n\n2,nan,3,4\n");
    let six = map("reaching-six", "1,1,6,2\n");
    let good = map("params", "1,1,6,6\n1,6,6,1\n1,2,6,2\n");
    // Two overlapping collinear segments never separate: at depth 40 the
    // PM₁ build would subdivide exponentially before failing.
    let collinear = map("collinear", "1,1,5,5\n2,2,6,6\n");
    // (map, command and flags, what the reason must name)
    let cases = [
        (&negative, "build", "cli-negative.csv:2:"),
        (&nan, "build", "cli-nan.csv:3:"),
        (&six, "build --size 4", "outside the world"),
        (&good, "build --index rtree --order 0,0", "--order"),
        (&good, "build --index rtree --order 1,1", "--order"),
        (&good, "build --index rtree --order 5,2", "--order"),
        (&good, "build --capacity 0", "--capacity"),
        (&collinear, "build --index pm1 --depth 40", "--depth"),
        (&good, "query --window nan,0,8,8", "finite"),
        (&good, "nearest --point nan,1", "finite"),
        (&good, "generate --kind roads --n 9 --size 3", "--size"),
    ];
    for (input, command, reason) in cases {
        let mut args: Vec<&str> = command.split(' ').collect();
        args.splice(1..1, ["--input", input.as_str()]);
        let out = dpspatial(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("dpspatial: "), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: no `{reason}`");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn generate_build_query_nearest_join_succeed() {
    let roads = map("roads", "");
    let rings = map("rings", "");
    let gen = |kind: &str, out: &str| {
        dpspatial(&[
            "generate", "--kind", kind, "--n", "200", "--size", "256", "--out", out,
        ])
    };
    let runs = [
        gen("roads", &roads),
        gen("rings", &rings),
        dpspatial(&["build", "--input", &roads, "--index", "pm1"]),
        dpspatial(&[
            "build", "--input", &roads, "--index", "rtree", "--order", "2,8",
        ]),
        dpspatial(&["query", "--input", &roads, "--window", "10,10,200,150"]),
        dpspatial(&["nearest", "--input", &roads, "--point", "100,30"]),
        dpspatial(&["join", "--a", &roads, "--b", &rings]),
    ];
    for out in &runs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
    }
    let query = String::from_utf8_lossy(&runs[4].stdout);
    assert!(query.contains("segments intersect"), "{query}");
}
