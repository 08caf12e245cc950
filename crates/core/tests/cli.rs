//! The `ped` binary on programs it cannot run: each must end in an error
//! message, never in a panic (exit status 101).

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A store to `a(i)` with no declaration of `a` as an array.
const UNDECLARED_ARRAY: &str = "program t\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n";

const NAMED: &str = "t: `a` is subscripted but not declared as an array";

/// Write `src` to a per-test file and run `ped` on it with `args` and
/// `stdin`.
fn run_ped(test: &str, src: &str, args: &[&str], stdin: &str) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("ped_cli_{test}_{}.f", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ped"))
        .args(args)
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn batch_check_of_undeclared_array_is_an_error_not_a_panic() {
    let out = run_ped("batch_check", UNDECLARED_ARRAY, &["--batch", "--check"], "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert!(!out.status.success(), "a program that cannot run is not clean");
    assert!(stderr.contains(NAMED), "{stderr}");
}

#[test]
fn interactive_run_of_undeclared_array_prints_an_error_and_continues() {
    let out = run_ped("run", UNDECLARED_ARRAY, &[], "run\nloops\nquit\n");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains(&format!("error: {NAMED}")), "{stdout}");
}
