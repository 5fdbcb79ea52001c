//! The socket-facing result stream: a shared, append-only line buffer
//! bridging the scenario engine's `MetricSink` to any number of
//! concurrent HTTP readers.
//!
//! The worker thread appends JSONL lines as phases complete; each
//! streaming connection replays the buffer from the start and then
//! follows live appends, so a client that connects late (or
//! reconnects) sees exactly the same byte stream as one that was there
//! from the beginning. Readers never block the writer — a slow or
//! vanished client only stalls its own connection.
//!
//! Reads never block either: a reader pulls batches with
//! [`LineBuffer::read_from`] and registers a [`Waker`] to learn when
//! there is more.

use bbncg_scenario::{MetricRecord, MetricSink};
use std::sync::{Arc, Mutex};

/// A callback the buffer fires (outside its lock) whenever new lines
/// land or the stream closes — how the event loop learns that a
/// followed stream has progressed without parking a thread on it.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct State {
    lines: Vec<String>,
    closed: bool,
    wakers: Vec<Waker>,
}

/// An append-only, multi-reader line buffer with waker notification.
#[derive(Default)]
pub struct LineBuffer {
    state: Mutex<State>,
}

impl LineBuffer {
    /// A fresh, open, empty buffer.
    pub fn new() -> Arc<LineBuffer> {
        Arc::new(LineBuffer::default())
    }

    /// Append one line (without trailing newline).
    pub fn push(&self, line: String) {
        let wakers = {
            let mut st = self.state.lock().expect("line buffer poisoned");
            st.lines.push(line);
            st.wakers.clone()
        };
        // Fire outside the lock: wakers take the event loop's own
        // locks, and holding the buffer lock across foreign code
        // invites ordering deadlocks.
        for w in wakers {
            w();
        }
    }

    /// Mark the stream complete: readers drain what is buffered and
    /// then see the closed flag from [`LineBuffer::read_from`]. Registered
    /// wakers fire one final time and are dropped — a closed buffer
    /// never wakes anyone again, so long-lived (cached) buffers cannot
    /// accumulate stale wakers.
    pub fn close(&self) {
        let wakers = {
            let mut st = self.state.lock().expect("line buffer poisoned");
            st.closed = true;
            std::mem::take(&mut st.wakers)
        };
        for w in wakers {
            w();
        }
    }

    /// Register a waker to fire on every future push and on close.
    /// Returns `false` (without registering) if the buffer is already
    /// closed — nothing further will happen, so the caller should act
    /// on the final state it can already read.
    pub fn register_waker(&self, waker: Waker) -> bool {
        let mut st = self.state.lock().expect("line buffer poisoned");
        if st.closed {
            return false;
        }
        st.wakers.push(waker);
        true
    }

    /// Has [`LineBuffer::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("line buffer poisoned").closed
    }

    /// Lines appended so far.
    pub fn len(&self) -> usize {
        self.state.lock().expect("line buffer poisoned").lines.len()
    }

    /// Is the buffer still empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking read of up to `max` lines starting at `idx`, plus
    /// the closed flag. The cap bounds each pull so a huge sweep buffer
    /// is streamed in batches instead of cloned whole.
    pub fn read_from(&self, idx: usize, max: usize) -> (Vec<String>, bool) {
        let st = self.state.lock().expect("line buffer poisoned");
        let lines = if idx < st.lines.len() {
            st.lines[idx..st.lines.len().min(idx + max)].to_vec()
        } else {
            Vec::new()
        };
        (lines, st.closed)
    }

    /// Snapshot of the whole buffer (tests, replay-only readers).
    pub fn snapshot(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("line buffer poisoned")
            .lines
            .clone()
    }
}

/// `MetricSink` adapter: every record becomes one buffered JSONL line —
/// the *same* line `JsonlSink` would have written to a file, which is
/// what makes served streams byte-identical to offline runs.
pub struct BufferSink {
    buffer: Arc<LineBuffer>,
}

impl BufferSink {
    /// Sink into `buffer`.
    pub fn new(buffer: Arc<LineBuffer>) -> Self {
        BufferSink { buffer }
    }
}

impl MetricSink for BufferSink {
    fn record(&mut self, rec: &MetricRecord) {
        // The line stays buffered as long as its job stays in the
        // server's history or result cache; `to_json` sizes it exactly,
        // so it carries no growth slack.
        self.buffer.push(rec.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    /// Follow `buf` to its end the way the event loop does: pull small
    /// batches with `read_from`, and when caught up, wait for the
    /// registered waker. Registering before the first pull means a
    /// push landing in between is never a lost wakeup.
    fn follow(buf: &LineBuffer) -> Vec<String> {
        let (tx, rx) = mpsc::channel();
        buf.register_waker(Arc::new(move || {
            let _ = tx.send(());
        }));
        let mut got = Vec::new();
        loop {
            let (lines, closed) = buf.read_from(got.len(), 7);
            if !lines.is_empty() {
                got.extend(lines);
            } else if closed {
                return got;
            } else {
                rx.recv().expect("an open buffer keeps its waker");
            }
        }
    }

    #[test]
    fn replay_then_follow_then_eof() {
        let buf = LineBuffer::new();
        buf.push("a".into());
        buf.push("b".into());
        assert_eq!(buf.read_from(0, 16), (vec!["a".into(), "b".into()], false));
        let writer = Arc::clone(&buf);
        let t = thread::spawn(move || {
            writer.push("c".into());
            writer.close();
        });
        assert_eq!(follow(&buf), vec!["a", "b", "c"]);
        t.join().unwrap();
        assert!(buf.is_closed());
        assert_eq!(buf.snapshot(), vec!["a", "b", "c"]);
        // Following a closed buffer replays it without waiting.
        assert_eq!(follow(&buf), vec!["a", "b", "c"]);
    }

    #[test]
    fn wakers_fire_on_push_and_close_then_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let buf = LineBuffer::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        assert!(buf.register_waker(Arc::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        })));
        buf.push("a".into());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        buf.close();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        // Closed buffers refuse registration and never fire again.
        let g = Arc::clone(&fired);
        assert!(!buf.register_waker(Arc::new(move || {
            g.fetch_add(100, Ordering::SeqCst);
        })));
        let (lines, closed) = buf.read_from(0, 16);
        assert_eq!(lines, vec!["a"]);
        assert!(closed);
        assert_eq!(buf.read_from(1, 16).0.len(), 0);
        assert_eq!(buf.read_from(0, 0).0.len(), 0, "zero cap reads nothing");
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn many_readers_see_identical_streams() {
        let buf = LineBuffer::new();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&buf);
                thread::spawn(move || follow(&b))
            })
            .collect();
        for i in 0..100 {
            buf.push(format!("line-{i}"));
        }
        buf.close();
        let want: Vec<String> = (0..100).map(|i| format!("line-{i}")).collect();
        for r in readers {
            assert_eq!(r.join().unwrap(), want);
        }
    }
}
