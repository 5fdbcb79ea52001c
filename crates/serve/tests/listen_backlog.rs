//! `sys::set_backlog` deepens a bound listener's accept queue past
//! std's hard-coded `listen(fd, 128)`, so a connect burst larger than
//! that queues until the event loop accepts it instead of being
//! dropped or reset.

#![cfg(target_os = "linux")]

use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

const CONNECTS: usize = 300;

#[test]
fn a_widened_listener_queues_a_connect_burst_without_accepting() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    bbncg_serve::sys::set_backlog(listener.as_raw_fd(), 1024).unwrap();
    let addr = listener.local_addr().unwrap();
    // The kernel clamps a backlog to `somaxconn` and queues one
    // connection more than the backlog it keeps.
    let expected = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(CONNECTS, |cap| CONNECTS.min(cap + 1));

    // Nothing accepts, so once the queue is full a connect stalls:
    // stop at the first one that does not complete.
    let mut queued = Vec::new();
    let mut stalled = None;
    while queued.len() < CONNECTS {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(stream) => queued.push(stream),
            Err(e) => {
                stalled = Some(e);
                break;
            }
        }
    }
    assert_eq!(queued.len(), expected, "stopped by {stalled:?}");
}
