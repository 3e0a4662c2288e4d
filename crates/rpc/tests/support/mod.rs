//! Shared helpers for the transport integration tests.

use std::time::{Duration, Instant};

/// Live threads of this process whose name starts with `prefix`, read from
/// `/proc/self/task/*/comm`. A server names its threads `rpc<port>-w<i>`,
/// so this counts one server's own threads no matter what
/// sibling tests are doing in the same process (an unnamed thread inherits
/// its spawner's name, so a per-connection thread would be counted too).
pub fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Polls `cond` until it holds, panicking with `what` after 10 s.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}
