//! Hostile numeric input to `airtime-cli` ends in a diagnostic and a
//! non-zero exit, never a panic or an unbounded run.

use std::process::Command;

#[test]
fn out_of_range_secs_are_rejected_without_panicking() {
    // 0 s has no span, 1 s leaves no time after the 1 s warm-up, and
    // the last two exceed the one-day ceiling (the very last overflows
    // the simulator's nanosecond clock).
    for secs in ["0", "1", "86401", "20000000000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
            .args(["run", "--rates", "11,1", "--secs", secs])
            .output()
            .expect("airtime-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--secs {secs} exited 0");
        assert!(
            !stderr.contains("panicked"),
            "--secs {secs} panicked: {stderr}"
        );
        assert!(stderr.contains("bad --secs"), "--secs {secs}: {stderr}");
    }
}
