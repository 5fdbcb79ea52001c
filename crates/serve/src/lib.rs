//! `bbncg-serve` — a dependency-free job server that turns the
//! workspace into a long-running simulation service.
//!
//! BBC-style games are motivated by peer-to-peer and overlay networks
//! (Laoutaris et al., *Bounded Budget Connection Games*), where the
//! natural deployment is a **service** answering best-response and
//! equilibrium queries continuously — not a one-shot CLI run. This
//! crate is that service, built entirely on `std::net` in the
//! workspace's vendored-shim tradition: a hand-rolled HTTP/1.1 subset
//! with keep-alive ([`http`]), a non-blocking epoll/poll connection
//! front end over vendored readiness bindings ([`sys`],
//! `event_loop`), a bounded job queue with a worker pool that reuses
//! one deviation engine per worker across jobs ([`server`]), a
//! content-addressed result cache that coalesces duplicate
//! submissions (`cache`), and chunked JSONL result streaming backed
//! by a replay-and-follow line buffer ([`stream`]). A sweep job runs
//! its seeds in parallel inside this one process, on the scenario
//! engine's seed fan-out. The server needs a Unix host (epoll on
//! Linux, `poll(2)` elsewhere); on other hosts [`spawn`] returns
//! [`std::io::ErrorKind::Unsupported`].
//!
//! The load-bearing invariant: **a served record stream is
//! byte-identical to the offline run.** Submitting a spec and
//! streaming `/jobs/{id}/stream` yields exactly the lines
//! `bbncg scenario run SPEC --out FILE` writes for the same spec and
//! seed — enforced end-to-end in CI, so the service can replace batch
//! invocations without any consumer noticing.
//!
//! ```no_run
//! use bbncg_serve::{client, spawn, ServerConfig};
//!
//! let server = spawn(ServerConfig::default()).unwrap();
//! let addr = server.addr().to_string();
//! let spec = "[init]\nfamily = \"uniform\"\nn = 8\nbudget = 1\n[[phase]]\nkind = \"dynamics\"";
//! let resp = client::request(&addr, "POST", "/jobs", spec.as_bytes()).unwrap();
//! assert_eq!(resp.status, 202);
//! client::stream_lines(&addr, "/jobs/1/stream", |line| {
//!     println!("{line}");
//!     true
//! })
//! .unwrap();
//! server.shutdown(false);
//! server.join();
//! ```

#![warn(missing_docs)]
// Every `unsafe` block (only the FFI shim in `sys.rs` has any) states
// the invariant it relies on in a `// SAFETY:` comment.
#![deny(clippy::undocumented_unsafe_blocks)]

mod cache;
pub mod client;
#[cfg(unix)]
mod event_loop;
pub mod http;
pub mod job;
pub mod server;
pub mod stream;
#[cfg(unix)]
pub mod sys;

pub use http::{HttpError, Request};
pub use job::{Job, JobKind, JobStatus};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use stream::{BufferSink, LineBuffer};
