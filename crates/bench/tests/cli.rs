//! The `mix` binary's input handling: bad usage exits 2 with the usage
//! text, and exit 1 stays reserved for what a run found (oracle
//! violation, shard divergence, wall-box stop).

use std::process::Command;

fn mix(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mix"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_usage_exits_2_with_usage() {
    for args in [
        &["--no-such-flag"][..],
        // The oracle is no flag: every run prints its verdict.
        &["--oracle"],
        &["--backend"],
        &["--backend", "quantum"],
        &["--size", "galactic"],
        &["--size", "e11-galactic"],
        // The e11 sizes parse: it is the misplaced flag that is refused.
        &["--size", "e11-mesh-ci", "--loss", "1"],
        &["--size", "e11", "--shards", "2"],
        &["--size", "e11-mesh", "--hashed"],
        &["--backend", "par", "--shards"],
        &["--backend", "par", "--shards", "0"],
        &["--backend", "par", "--shards", "two"],
        &["--backend", "rt", "--loss", "1001"],
        &["--backend", "rt", "--loss", "-1"],
        &["--backend", "serial", "--shards", "2"],
        &["--backend", "par", "--loss", "20"],
    ] {
        let (code, stdout, stderr) = mix(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mix"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
    }
}

#[test]
fn a_clean_run_exits_0_and_reports_its_digest() {
    let (code, stdout, stderr) = mix(&["--backend", "par", "--size", "micro"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout.matches("digest ").count(), 3, "{stdout}");
    assert!(stdout.contains("oracle clean") && stdout.contains("byte-identical"));

    // The e11 routing workload is a `--size`, not a binary of its own.
    let (code, stdout, stderr) = mix(&["--backend", "serial", "--size", "e11-ci"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("alt wins") && stdout.contains("oracle clean"));
}
