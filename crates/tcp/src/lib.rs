//! The TCP/IP baseline the paper measures RDMA against.
//!
//! Figure 6 compares a latency-sensitive service running half on TCP and
//! half on RDMA; §1 gives the CPU cost of kernel TCP at 40 Gb/s (6% of a
//! 32-core server to send, 12% to receive). Reproducing those comparisons
//! needs a TCP substrate with the two properties the paper blames for the
//! tail:
//!
//! 1. **Kernel stack latency** ([`host::KernelModel`]): every message
//!    crosses the socket/kernel boundary twice, paying a sampled
//!    processing delay with a heavy-ish tail ("the kernel software
//!    introduces latency that can be as high as tens of milliseconds").
//!    The same path bills CPU time per segment and per message, so the
//!    §1 utilization numbers can be regenerated.
//! 2. **Loss recovery by retransmission**: NewReno-style congestion
//!    control ([`conn`]) with fast retransmit and a minimum-RTO floor, so
//!    that rare incast drops turn into multi-millisecond completions —
//!    "TCP must recover from the losses via timeouts or fast
//!    retransmissions, and in both cases, application latency takes a
//!    hit."
//!
//! TCP rides a *lossy* traffic class, isolated from RDMA in a different
//! switch queue with DWRR bandwidth sharing (§2 "Coexistence of RDMA and
//! TCP"), which is how Figure 8 shows TCP latency unaffected by RDMA
//! congestion.
//!
//! Deliberate simplifications: wrap-free 64-bit sequence space, no
//! receive-window dynamics (receivers are never the bottleneck in the
//! reproduced experiments), ack-every-segment (no delayed-ACK timer), and
//! connections are pre-established (no handshake) — none of which the
//! paper's comparisons are sensitive to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod host;

pub use conn::{TcpReceiver, TcpSender};
pub use host::{ConnHandle, KernelModel, TcpApp, TcpHost, TcpHostConfig};
