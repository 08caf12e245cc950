//! The `ped` binary on programs it cannot run: each must end in an error
//! message, never in a panic (exit status 101).

use ped_obs::json::{self, Json};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A store to `a(i)` with no declaration of `a` as an array.
const UNDECLARED_ARRAY: &str = "program t\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n";

const NAMED: &str = "t: `a` is subscripted but not declared as an array";

/// A scalar passed to an array formal: running it panics in the runtime.
const SCALAR_TO_ARRAY_FORMAL: &str =
    "program t\nx = 1.0\ncall f(x)\nend\nsubroutine f(a)\nreal a(10)\na(1) = 2.0\nend\n";

/// The same bad call inside a `PARALLEL DO`. A plain run with two threads
/// panics in a pool worker (a CALL body has no static step bound, so the
/// loop does not run inline); a checked run executes every `PARALLEL DO`
/// on the calling thread and panics there.
const SCALAR_TO_ARRAY_FORMAL_IN_PARALLEL_DO: &str = "program t\nx = 1.0\n\
     parallel do i = 1, 4\ncall f(x)\nenddo\nend\nsubroutine f(a)\nreal a(10)\na(1) = 2.0\nend\n";

/// How long one `ped` run may take before the test kills it and fails.
const DEADLINE: Duration = Duration::from_secs(60);

/// Run `ped` with `args`, feeding it `stdin`. A run that outlives
/// [`DEADLINE`] is killed and fails the test, so a wedged `ped` cannot
/// hang the suite.
fn ped(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ped"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    // Drain both pipes while waiting, so a chatty child never blocks.
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).unwrap();
            bytes
        })
    };
    let stdout = drain(Box::new(child.stdout.take().unwrap()));
    let stderr = drain(Box::new(child.stderr.take().unwrap()));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().unwrap();
            panic!("ped {args:?} did not exit within {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Output { status, stdout: stdout.join().unwrap(), stderr: stderr.join().unwrap() }
}

/// Write `src` to a per-test file and run `ped` on it with `args` and
/// `stdin`.
fn run_ped(test: &str, src: &str, args: &[&str], stdin: &str) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("ped_cli_{test}_{}.f", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = ped(&[args, &[path.to_str().unwrap()]].concat(), stdin);
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

/// A request that panics gets an `internal_error` reply; the other
/// session keeps answering and the daemon shuts down cleanly. That holds
/// for a serial and for a threaded `check`.
#[test]
fn serve_survives_a_panicking_request() {
    let open = |id: u64, src: &str| {
        Json::obj(vec![
            ("id", Json::int(id)),
            ("verb", Json::str("open")),
            ("source", Json::str(src)),
        ])
        .to_string_compact()
    };
    let good = "program g\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n";
    for (bad, threads) in
        [(SCALAR_TO_ARRAY_FORMAL, ""), (SCALAR_TO_ARRAY_FORMAL_IN_PARALLEL_DO, ",\"threads\":2")]
    {
        let requests = [
            open(1, good),
            open(2, bad),
            format!("{{\"id\":3,\"verb\":\"check\",\"session\":2{threads}}}"),
            "{\"id\":4,\"verb\":\"analyze\",\"session\":1}".to_string(),
            "{\"id\":5,\"verb\":\"shutdown\"}".to_string(),
        ]
        .join("\n");
        let out = ped(&["serve"], &format!("{requests}\n"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "check{threads}: {stdout}{stderr}");
        let replies: Vec<Json> = stdout.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 5, "check{threads}: {stdout}");
        let ok = |r: &Json| r.get("ok").and_then(Json::as_bool);
        let code = replies[2].get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("internal_error"), "check{threads}: {stdout}");
        assert_eq!(ok(&replies[3]), Some(true), "check{threads}: {stdout}");
        assert_eq!(ok(&replies[4]), Some(true), "check{threads}: {stdout}");
    }
}
