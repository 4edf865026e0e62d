//! The `load_driver` binary end to end: a malformed command line or a
//! configuration the service rejects exits 1 with a `load_driver:
//! <reason>` line instead of a panic, and one tiny valid run succeeds.

use std::process::{Command, Output};

fn load_driver(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_load_driver"))
        .args(args)
        .output()
        .expect("the load_driver binary runs")
}

#[test]
fn malformed_input_exits_1_naming_the_reason() {
    // (arguments, what the reason must name)
    let cases: [(&[&str], &str); 8] = [
        (&["--segmnts", "10"], "unknown flag --segmnts"),
        (&["--segments", "ten"], "--segments: cannot parse `ten`"),
        (
            &["--fault-rate", "often"],
            "--fault-rate: cannot parse `often`",
        ),
        (&["--segments", "100", "--seed"], "missing value for --seed"),
        (&["--workload", "forest"], "unknown workload forest"),
        (&["--policy", "drop"], "unknown admission policy drop"),
        (&["--segments", "100", "--shards", "3"], "power of two"),
        (
            &["--segments", "100", "--rate", "100", "--lanes", "0"],
            "admission lane",
        ),
    ];
    for (args, reason) in cases {
        let out = load_driver(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("load_driver: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains(reason),
            "{args:?}: no `{reason}` in {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_tiny_valid_run_succeeds() {
    let out = load_driver(&[
        "--segments",
        "300",
        "--requests",
        "200",
        "--shards",
        "2",
        "--threads",
        "1",
        "--overlay",
        "100",
        "--self-check",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
